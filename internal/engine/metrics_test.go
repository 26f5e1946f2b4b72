package engine

import (
	"context"
	"testing"

	"lotustc/internal/gen"
)

// TestRunCollectMetricsLotus: an instrumented lotus run must surface
// the engine-level gauges, all four phase wall times, the scheduler
// claim/steal counters, and the structure touch counts.
func TestRunCollectMetricsLotus(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	rep, err := Run(context.Background(), g, Spec{
		Algorithm:      "lotus",
		CollectMetrics: true,
		Params:         Params{WorkStealing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("CollectMetrics set but Report.Metrics nil")
	}
	required := []string{
		"graph.vertices", "graph.edges", "run.workers",
		"preprocess.ns", "phase1.ns", "hnn.ns", "nnn.ns",
		"lotus.hubs", "lotus.he_edges", "lotus.nhe_edges", "lotus.h2h_bits",
		"phase1.tiles", "phase1.h2h_probes", "phase1.polls",
		"phase1.claims", "phase1.steals",
		"hnn.he_intersections", "hnn.polls", "hnn.claims", "hnn.dispatch.bitmap",
		"nnn.nhe_intersections", "nnn.polls", "nnn.claims",
	}
	for _, name := range required {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}
	if v := rep.Metrics["graph.vertices"]; v != int64(g.NumVertices()) {
		t.Errorf("graph.vertices = %d, want %d", v, g.NumVertices())
	}
	if rep.Metrics["phase1.ns"] != rep.Phase(PhaseHub).Nanoseconds() {
		t.Errorf("phase1.ns %d != report phase %d",
			rep.Metrics["phase1.ns"], rep.Phase(PhaseHub).Nanoseconds())
	}
	if rep.Metrics["phase1.tiles"] <= 0 || rep.Metrics["phase1.claims"] <= 0 {
		t.Errorf("tile/claim counters not recorded: %v", rep.Metrics)
	}
}

// TestRunCollectMetricsOff: the default path must not allocate a
// registry, so uninstrumented runs stay exactly as before.
func TestRunCollectMetricsOff(t *testing.T) {
	rep, err := Run(context.Background(), gen.Complete(12), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics != nil {
		t.Fatalf("metrics collected without CollectMetrics: %v", rep.Metrics)
	}
}

// TestRunCollectMetricsForward: baseline kernels report through the
// baseline.* namespace.
func TestRunCollectMetricsForward(t *testing.T) {
	rep, err := Run(context.Background(), gen.Complete(12), Spec{
		Algorithm:      "forward",
		CollectMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"baseline.preprocess.ns", "baseline.count.ns",
		"baseline.oriented_edges", "baseline.intersections",
	} {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("metric %q missing from forward snapshot", name)
		}
	}
	// K12 oriented: C(12,2) = 66 directed forward edges, one
	// intersection per oriented edge.
	if v := rep.Metrics["baseline.intersections"]; v != 66 {
		t.Errorf("baseline.intersections = %d, want 66", v)
	}
}
