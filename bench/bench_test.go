package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"slices"
	"testing"
	"time"
)

// tinyConfig runs a workload on inputs small enough for the whole
// smoke test to finish in seconds.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		phase:    200 * time.Millisecond,
		trace:    trace,
		workDir:  t.TempDir(),
		size: sizes{countScale: 9, edgeFactor: 8, serveScale: 8, hotSet: 3, streamScale: 9,
			streamHubs: 32, batch: 256, setupReps: 1, censusReps: 1},
	}
}

// declaredUnits reads the metric names and units BENCHMARK.json
// declares.
func declaredUnits(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	units := func(es []entry) map[string]string {
		m := map[string]string{}
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	return units(doc.EndToEnd), units(doc.PerLayer)
}

func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declaredUnits(t)
	names := slices.Sorted(maps.Keys(workloads))
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			name := w
			want := endToEnd
			if trace {
				name, want = w+"/trace", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, _, err := run(tinyConfig(t, w, trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if !maps.Equal(got, want) {
					t.Errorf("emitted metrics %v\nBENCHMARK.json declares %v", got, want)
				}
			})
		}
	}
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	for _, w := range []string{"count-flat", "serve-query"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, false)
			cfg.corruptReference = true
			res, _, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a wrong reference went unnoticed: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}
