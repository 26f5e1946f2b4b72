package tune

import (
	"strings"
	"testing"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
	"lotustc/internal/stats"
)

// TestPolicyGolden pins the routing decision for each structural
// regime. These are golden values: a policy or threshold change that
// re-routes one of these graphs must update this table deliberately,
// with fresh BENCH numbers justifying it.
func TestPolicyGolden(t *testing.T) {
	pool := sched.NewPool(0)
	cases := []struct {
		name      string
		g         *graph.Graph
		wantAlgo  string
		wantWord  bool   // Phase1Kernel pinned to "word"
		reasonSub string // substring the reason must carry
	}{
		// Tiny graphs take the default regardless of shape.
		{"tiny-complete", gen.Complete(50), "lotus", false, "tiny graph"},
		{"tiny-trigrid", gen.TriGrid(20, 30), "lotus", false, "tiny graph"},
		{"empty", graph.FromEdges(nil, graph.BuildOptions{NumVertices: 8192}), "lotus", false, "empty graph"},
		// Power-law analogs: hubs cover the edges, LOTUS wins. At this
		// scale the H2H array is over half full, so word is pinned too.
		{"rmat-13", gen.RMAT(gen.DefaultRMAT(13, 8, 42)), "lotus", true, "hub edge coverage"},
		// Flat sparse graphs: weak hubs, short rows, cover-edge wins.
		{"trigrid-100", gen.TriGrid(100, 100), "cover-edge", false, "short rows"},
		{"ba-8k", gen.BarabasiAlbert(8192, 4, 9), "cover-edge", false, "short rows"},
		// Flat but dense: weak hubs, long rows, stay on lotus.
		{"er-dense", gen.ErdosRenyi(8192, 65536, 11), "lotus", false, "dense rows"},
	}
	for _, tc := range cases {
		d := Analyze(tc.g, 0, pool, Overrides{})
		if d.Algorithm != tc.wantAlgo {
			t.Errorf("%s: routed to %s, want %s (reason: %s)", tc.name, d.Algorithm, tc.wantAlgo, d.Reason)
			continue
		}
		if word := d.Phase1Kernel == "word"; word != tc.wantWord {
			t.Errorf("%s: phase1 kernel %q, want word=%v (h2h density %.1f%%)",
				tc.name, d.Phase1Kernel, tc.wantWord, d.Probe.H2HDensityPct)
		}
		if !strings.Contains(d.Reason, tc.reasonSub) {
			t.Errorf("%s: reason %q does not mention %q", tc.name, d.Reason, tc.reasonSub)
		}
		if d.Overridden {
			t.Errorf("%s: no overrides given but Overridden is set", tc.name)
		}
		if d.IntersectKernel != "bitmap" {
			t.Errorf("%s: intersect kernel %q, want bitmap", tc.name, d.IntersectKernel)
		}
	}
}

// TestDecisionDeterministic: the probe and policy must yield the same
// decision (stats included) on repeat runs over the same graph.
func TestDecisionDeterministic(t *testing.T) {
	pool := sched.NewPool(0)
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 7))
	first := Analyze(g, 0, pool, Overrides{})
	for i := 0; i < 3; i++ {
		d := Analyze(g, 0, pool, Overrides{})
		if d.Algorithm != first.Algorithm || d.Reason != first.Reason {
			t.Fatalf("run %d: decision changed: %s / %s", i, d.Algorithm, d.Reason)
		}
		if d.Probe != first.Probe {
			t.Fatalf("run %d: probe stats changed:\n%+v\n%+v", i, d.Probe, first.Probe)
		}
	}
}

// TestWordKernelPinning: the phase-1 word kernel is pinned above the
// density threshold and left on auto below it.
func TestWordKernelPinning(t *testing.T) {
	base := stats.Probe{Vertices: 100000, Edges: 1000000, AvgDegree: 20,
		HubEdgeCoveragePct: 60}
	base.H2HDensityPct = WordKernelH2HDensityPct + 5
	if d := Decide(base, Overrides{}); d.Phase1Kernel != "word" {
		t.Errorf("density %.0f%%: phase1 = %q, want word", base.H2HDensityPct, d.Phase1Kernel)
	}
	base.H2HDensityPct = WordKernelH2HDensityPct - 5
	if d := Decide(base, Overrides{}); d.Phase1Kernel != "auto" {
		t.Errorf("density %.0f%%: phase1 = %q, want auto", base.H2HDensityPct, d.Phase1Kernel)
	}
}

// TestOverrides: pinning fields forces the decision, marks it
// Overridden, and keeps the policy's original choice in the reason.
func TestOverrides(t *testing.T) {
	p := stats.Probe{Vertices: 100000, Edges: 300000, AvgDegree: 6, HubEdgeCoveragePct: 5}
	if d := Decide(p, Overrides{}); d.Algorithm != "cover-edge" || d.Overridden {
		t.Fatalf("baseline: %+v", d)
	}
	d := Decide(p, Overrides{Algorithm: "forward"})
	if d.Algorithm != "forward" || !d.Overridden {
		t.Fatalf("algorithm override: %+v", d)
	}
	if !strings.Contains(d.Reason, "override") || !strings.Contains(d.Reason, "policy chose") {
		t.Fatalf("override reason lacks provenance: %q", d.Reason)
	}
	// Pinning to what the policy already chose is not an override.
	if d := Decide(p, Overrides{Algorithm: "cover-edge"}); d.Overridden {
		t.Fatalf("no-op algorithm pin marked Overridden: %+v", d)
	}
	if d := Decide(p, Overrides{Phase1Kernel: "word", IntersectKernel: "merge"}); !d.Overridden ||
		d.Phase1Kernel != "word" || d.IntersectKernel != "merge" {
		t.Fatalf("kernel overrides: %+v", d)
	}
}

// TestReportAndPublish: the wire block carries the full provenance
// and Publish lands the counters under their obs names.
func TestReportAndPublish(t *testing.T) {
	pool := sched.NewPool(0)
	g := gen.TriGrid(100, 100)
	d := Analyze(g, 0, pool, Overrides{})
	r := d.Report()
	if r.Algorithm != d.Algorithm || r.Reason != d.Reason || r.ProbeNS <= 0 {
		t.Fatalf("report block: %+v", r)
	}
	for _, k := range []string{"vertices", "edges", "avg_degree", "degree_gini",
		"hub_edge_coverage_pct", "h2h_density_pct"} {
		if _, ok := r.Stats[k]; !ok {
			t.Errorf("report stats missing %q", k)
		}
	}
	m := obs.New()
	d.Publish(m)
	snap := m.Snapshot()
	if snap[obs.TuneProbes] != 1 {
		t.Errorf("%s = %d, want 1", obs.TuneProbes, snap[obs.TuneProbes])
	}
	if snap[obs.TuneProbeNS] <= 0 {
		t.Errorf("%s = %d, want > 0", obs.TuneProbeNS, snap[obs.TuneProbeNS])
	}
	if snap[obs.TuneDecisionPrefix+d.Algorithm] != 1 {
		t.Errorf("decision counter for %s not bumped", d.Algorithm)
	}
	if snap[obs.TuneOverridden] != 0 {
		t.Errorf("%s = %d, want 0", obs.TuneOverridden, snap[obs.TuneOverridden])
	}
}
