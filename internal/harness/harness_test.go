package harness

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// tinySuite keeps harness smoke tests fast.
func tinySuite() Suite { return Suite{Scale: 9, EdgeFactor: 8} }

func TestDatasetsBuildAndValidate(t *testing.T) {
	s := tinySuite()
	names := map[string]bool{}
	for _, d := range s.Datasets() {
		if names[d.Name] {
			t.Fatalf("duplicate dataset name %s", d.Name)
		}
		names[d.Name] = true
		g := d.Build()
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", d.Name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if d.Kind != "SN" && d.Kind != "WG" && d.Kind != "FLAT" {
			t.Fatalf("%s: unknown kind %q", d.Name, d.Kind)
		}
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	s := tinySuite()
	a := s.Datasets()[0].Build()
	b := s.Datasets()[0].Build()
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("dataset not deterministic")
	}
}

func TestFlatDatasetIsFlatter(t *testing.T) {
	s := Suite{Scale: 11, EdgeFactor: 8}
	var skewGini, flatGini float64
	for _, d := range s.Datasets() {
		g := d.Build()
		switch d.Name {
		case "rmat-sn":
			skewGini = g.GiniOfDegrees()
		case "cl-flat":
			flatGini = g.GiniOfDegrees()
		}
	}
	if flatGini >= skewGini {
		t.Fatalf("cl-flat Gini %.3f >= rmat-sn %.3f; flat regime not reproduced", flatGini, skewGini)
	}
}

// runExperiment executes one registry entry and returns its output.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	e := Find(id)
	if e == nil {
		t.Fatalf("experiment %s not registered", id)
	}
	var buf bytes.Buffer
	e.Run(&buf, tinySuite(), 2)
	out := buf.String()
	if strings.Contains(out, "MISMATCH") {
		t.Fatalf("%s reported a count mismatch:\n%s", id, out)
	}
	if len(out) < 40 {
		t.Fatalf("%s produced no meaningful output:\n%s", id, out)
	}
	return out
}

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) { runExperiment(t, id) })
	}
}

func TestTable5ReportsAllAlgorithms(t *testing.T) {
	out := runExperiment(t, "table5")
	for _, name := range []string{"BBTC", "GGrnd", "GAP", "GBBS", "Lotus"} {
		if !strings.Contains(out, name) {
			t.Errorf("table5 output missing %s", name)
		}
	}
	if !strings.Contains(out, "Fig 1") {
		t.Error("table5 output missing Fig 1 rates")
	}
}

func TestFig4ReportsBothKernels(t *testing.T) {
	out := runExperiment(t, "fig4")
	if !strings.Contains(out, "forward") || !strings.Contains(out, "lotus") {
		t.Fatalf("fig4 output missing kernels:\n%s", out)
	}
	if !strings.Contains(out, "Average reduction") {
		t.Fatal("fig4 output missing summary")
	}
}

func TestFindAndIDs(t *testing.T) {
	if Find("nope") != nil {
		t.Fatal("Find returned ghost experiment")
	}
	ids := IDs()
	if len(ids) < 12 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	for _, want := range []string{"table1", "table5", "table7", "table8", "table9",
		"fig4", "fig6", "fig7", "fig8", "fig9"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %s missing from registry", want)
		}
	}
}

func TestExperimentsCitePaperBaselines(t *testing.T) {
	// Every table/figure reproduction must print the paper's reported
	// numbers next to the measured ones, so the output is
	// self-contained for comparison (EXPERIMENTS.md is built from it).
	for _, id := range []string{"table1", "table5", "table7", "table8", "table9",
		"fig4", "fig6", "fig7", "fig8", "fig9"} {
		out := runExperiment(t, id)
		if !strings.Contains(out, "paper") {
			t.Errorf("%s output does not cite the paper's numbers", id)
		}
	}
}

func TestExperimentDescriptionsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.Description == "" {
			t.Errorf("%s has no description", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run in -short mode")
	}
	var buf bytes.Buffer
	RunAll(&buf, Suite{Scale: 8, EdgeFactor: 6}, 2)
	out := buf.String()
	if strings.Contains(out, "MISMATCH") {
		t.Fatalf("RunAll reported mismatch:\n%s", out)
	}
	for _, hdr := range []string{"Table 1", "Table 5", "Table 7", "Table 8", "Table 9",
		"Fig 4", "Fig 6", "Fig 7", "Fig 8", "Fig 9", "Ablation"} {
		if !strings.Contains(out, hdr) {
			t.Errorf("RunAll output missing section %q", hdr)
		}
	}
}

func TestSafeDiv(t *testing.T) {
	if got := safeDiv(6, 3); got != 2 {
		t.Fatalf("safeDiv(6,3) = %v", got)
	}
	if got := safeDiv(1, 0); got != 0 {
		t.Fatalf("safeDiv(1,0) = %v, want 0 (finite aggregation)", got)
	}
	if got := safeDiv(0, 0); got != 0 {
		t.Fatalf("safeDiv(0,0) = %v, want 0", got)
	}
}

func TestSimulateScheduleDegenerate(t *testing.T) {
	// All-zero work: makespan 0 must yield idle 0, not NaN.
	if span, idle := simulateSchedule([]uint64{0, 0, 0}, 4); span != 0 || idle != 0 {
		t.Fatalf("zero work: span=%d idle=%v, want 0, 0", span, idle)
	}
	// Exactly balanced: idle must clamp at 0, never go negative.
	if _, idle := simulateSchedule([]uint64{5, 5, 5, 5}, 4); idle != 0 {
		t.Fatalf("balanced schedule idle = %v, want 0", idle)
	}
	if span, idle := simulateSchedule(nil, 4); span != 0 || idle != 0 {
		t.Fatalf("empty work: span=%d idle=%v", span, idle)
	}
}

// TestTable5OutputFinite: sub-resolution timings on tiny graphs must
// never surface as NaN/Inf rows in the Table 5 / Fig 1 aggregates.
func TestTable5OutputFinite(t *testing.T) {
	var buf bytes.Buffer
	RunTable5(&buf, Suite{Scale: 8, EdgeFactor: 6}, 2)
	out := buf.String()
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Fatalf("table5 output contains %s:\n%s", bad, out)
		}
	}
}

// TestExperimentsStopOnExpiredDeadline: every experiment run under a
// suite whose deadline has already passed returns without panicking —
// LOTUS builds on its bound pools are cut short — and RunAll reports
// the deadline.
func TestExperimentsStopOnExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	s := Suite{Scale: 8, EdgeFactor: 6, Ctx: ctx}
	for _, id := range IDs() {
		Find(id).Run(io.Discard, s, 2)
	}
	if err := RunAll(io.Discard, s, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunAll = %v, want the deadline", err)
	}
}
