package engine

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
)

// autoCorpus covers every policy regime plus the degenerate shapes.
func autoCorpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat-9":      gen.RMAT(gen.DefaultRMAT(9, 8, 42)),
		"rmat-10":     gen.RMAT(gen.DefaultRMAT(10, 16, 7)),
		"rmat-13":     gen.RMAT(gen.DefaultRMAT(13, 8, 42)),
		"chunglu":     gen.ChungLu(gen.ChungLuParams{N: 600, M: 3000, Gamma: 2.1, Seed: 3}),
		"complete-50": gen.Complete(50),
		"hub-spokes":  gen.HubAndSpokes(16, 500, 3, 5),
		"planted":     gen.PlantedTriangles(40, 100),
		"star":        gen.Star(100),
		"path":        gen.Path(64),
		"single-edge": graph.FromEdges([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{}),
		"bipartite":   gen.CompleteBipartite(10, 12),
		"trigrid-100": gen.TriGrid(100, 100),
		"ba-8k":       gen.BarabasiAlbert(8192, 4, 9),
		"er-8k":       gen.ErdosRenyi(8192, 65536, 11),
	}
}

// TestCrossAlgorithmEquivalence: cover-edge and the auto router must
// reproduce the lotus total bit for bit on every corpus graph and hub
// count.
func TestCrossAlgorithmEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, g := range autoCorpus() {
		for _, hubs := range []int{0, 7} {
			want, err := Run(ctx, g, Spec{Algorithm: "lotus", Params: Params{HubCount: hubs}})
			if err != nil {
				t.Fatalf("%s hubs=%d lotus: %v", name, hubs, err)
			}
			for _, algo := range []string{"cover-edge", "auto"} {
				rep, err := Run(ctx, g, Spec{Algorithm: algo, Params: Params{HubCount: hubs}})
				if err != nil {
					t.Fatalf("%s hubs=%d %s: %v", name, hubs, algo, err)
				}
				if rep.Triangles != want.Triangles {
					t.Errorf("%s hubs=%d: %s counted %d, lotus %d", name, hubs, algo, rep.Triangles, want.Triangles)
				}
			}
		}
	}
}

// TestAutoDecisionRecorded: an auto run must carry the full routing
// provenance — algorithm, reason, probe stats, and a probe phase.
func TestAutoDecisionRecorded(t *testing.T) {
	g := gen.TriGrid(100, 100)
	rep, err := Run(context.Background(), g, Spec{Algorithm: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Decision
	if d == nil {
		t.Fatal("auto run has no Decision block")
	}
	if d.Algorithm != "cover-edge" {
		t.Fatalf("trigrid routed to %s, want cover-edge (reason: %s)", d.Algorithm, d.Reason)
	}
	if d.Reason == "" || d.Overridden {
		t.Fatalf("decision provenance: %+v", d)
	}
	if len(d.Stats) != 10 {
		t.Fatalf("decision carries %d stats, want 10", len(d.Stats))
	}
	if d.ProbeNS <= 0 {
		t.Fatalf("decision probe cost %d, want > 0", d.ProbeNS)
	}
	if rep.Phase(PhaseProbe) <= 0 {
		t.Fatal("no probe phase recorded")
	}
	// A fixed-algorithm run must NOT carry a Decision.
	plain, err := Run(context.Background(), g, Spec{Algorithm: "lotus"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Decision != nil {
		t.Fatal("lotus run carries a Decision block")
	}
}

// TestAutoTuneAlgorithmOverride: pinning the routed algorithm runs it
// and marks the decision overridden; pinning "auto" itself errors
// instead of recursing.
func TestAutoTuneAlgorithmOverride(t *testing.T) {
	g := gen.TriGrid(60, 60) // policy would choose lotus (tiny)
	rep, err := Run(context.Background(), g, Spec{Algorithm: "auto",
		Params: Params{TuneAlgorithm: "cover-edge"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision == nil || rep.Decision.Algorithm != "cover-edge" || !rep.Decision.Overridden {
		t.Fatalf("override decision: %+v", rep.Decision)
	}
	if !strings.Contains(rep.Decision.Reason, "override") {
		t.Fatalf("override reason: %q", rep.Decision.Reason)
	}
	if want := uint64(59 * 59 * 2); rep.Triangles != want {
		t.Fatalf("counted %d, want %d", rep.Triangles, want)
	}
	if _, err := Run(context.Background(), g, Spec{Algorithm: "auto",
		Params: Params{TuneAlgorithm: "auto"}}); err == nil ||
		!strings.Contains(err.Error(), "recurse") {
		t.Fatalf("pinning auto to itself: %v", err)
	}
	if _, err := Run(context.Background(), g, Spec{Algorithm: "auto",
		Params: Params{TuneAlgorithm: "no-such"}}); err == nil ||
		!strings.Contains(err.Error(), "tuner routed to") {
		t.Fatalf("pinning auto to unknown: %v", err)
	}
}

// TestAutoRunKeepsNoGraph: the auto kernel probes on every run and
// keeps nothing past it, so a graph counted with "auto" can be
// collected once the caller drops it; a decision memo keyed by the
// graph pointer would pin every graph it saw.
func TestAutoRunKeepsNoGraph(t *testing.T) {
	collected := make(chan struct{})
	func() {
		g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
		runtime.SetFinalizer(g, func(*graph.Graph) { close(collected) })
		if _, err := Run(context.Background(), g, Spec{Algorithm: "auto"}); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a graph counted with auto was never collected")
		}
	}
}
