package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestMetricsBasics(t *testing.T) {
	m := New()
	m.Add("a", 2)
	m.Add("a", 3)
	m.Set("b", 7)
	m.Set("b", 9)
	m.AddDuration("c.ns", 1500*time.Nanosecond)
	if got := m.Get("a"); got != 5 {
		t.Fatalf("a = %d, want 5", got)
	}
	if got := m.Get("b"); got != 9 {
		t.Fatalf("b = %d, want 9 (Set must replace)", got)
	}
	if got := m.Get("c.ns"); got != 1500 {
		t.Fatalf("c.ns = %d, want 1500", got)
	}
	if got := m.Get("absent"); got != 0 {
		t.Fatalf("absent = %d, want 0", got)
	}
	want := map[string]int64{"a": 5, "b": 9, "c.ns": 1500}
	if snap := m.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot() = %v, want %v", snap, want)
	}
}

// TestMetricsNilReceiver: a nil *Metrics is the disabled state; every
// method must be a safe no-op so call sites carry no branches.
func TestMetricsNilReceiver(t *testing.T) {
	var m *Metrics
	m.Add("a", 1)
	m.Set("a", 1)
	m.AddDuration("a.ns", time.Second)
	if m.Get("a") != 0 {
		t.Fatal("nil Get != 0")
	}
	if m.Snapshot() != nil {
		t.Fatal("nil Snapshot != nil (must serialize as an absent field)")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := New()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Add("shared", 1)
				m.Add(fmt.Sprintf("own.%d", w), 1)
			}
		}(w)
	}
	wg.Wait()
	if got := m.Get("shared"); got != workers*each {
		t.Fatalf("shared = %d, want %d", got, workers*each)
	}
	for w := 0; w < workers; w++ {
		if got := m.Get(fmt.Sprintf("own.%d", w)); got != each {
			t.Fatalf("own.%d = %d, want %d", w, got, each)
		}
	}
}

func TestRunReportJSON(t *testing.T) {
	rr := NewRunReport("test-tool")
	if rr.Schema != SchemaRun || rr.Tool != "test-tool" || rr.Timestamp.IsZero() {
		t.Fatalf("envelope not filled: %+v", rr)
	}
	rr.Graph = GraphInfo{Source: "rmat-12", Vertices: 4096, Edges: 48512}
	rr.Algorithm = "lotus"
	rr.Triangles = 42
	rr.Phases = []PhaseNS{{Name: "phase1", NS: 100}}
	rr.Metrics = map[string]int64{"phase1.claims": 3}
	var buf bytes.Buffer
	if err := rr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaRun || back.Triangles != 42 || back.Metrics["phase1.claims"] != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// An un-instrumented run must serialize without the optional keys.
	bare := NewRunReport("t")
	buf.Reset()
	if err := bare.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"metrics", "classes", "events", "error", "phases"} {
		if bytes.Contains(buf.Bytes(), []byte(`"`+key+`"`)) {
			t.Fatalf("bare report contains optional key %q:\n%s", key, buf.String())
		}
	}
}

// TestDebugServer exercises the pprof/expvar endpoint end-to-end:
// bind :0, publish a metrics set, re-publish a replacement (raw
// expvar.Publish would panic), and read both pages over HTTP.
func TestDebugServer(t *testing.T) {
	m := New()
	m.Add("phase1.tiles", 11)
	Publish("lotus_metrics_test", m)
	m2 := New()
	m2.Add("phase1.tiles", 22)
	Publish("lotus_metrics_test", m2) // replace, must not panic

	addr, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return buf.String()
	}
	vars := get("/debug/vars")
	if !bytes.Contains([]byte(vars), []byte(`"phase1.tiles":22`)) {
		t.Fatalf("/debug/vars missing replaced metrics: %s", vars)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
