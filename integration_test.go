package lotustc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lotustc/internal/cc"
	"lotustc/internal/compress"
	"lotustc/internal/core"
	"lotustc/internal/kclique"
	"lotustc/internal/sched"
)

// Cross-subsystem integration tests: every independent path to a
// triangle count must agree, on every generator family.

func integrationGraphs() map[string]*Graph {
	return map[string]*Graph{
		"rmat":      RMAT(10, 8, 100),
		"chunglu":   ChungLu(1024, 8192, 2.2, 101),
		"flat":      ChungLuCapped(1024, 4096, 2.6, 0.01, 102),
		"ba":        BarabasiAlbert(800, 4, 103),
		"er":        ErdosRenyi(600, 2400, 104),
		"hubspokes": HubAndSpokes(12, 300, 4, 105),
	}
}

func TestAllPathsAgree(t *testing.T) {
	pool := sched.NewPool(2)
	for name, g := range integrationGraphs() {
		want, err := Count(g, Options{Algorithm: AlgoForward})
		if err != nil {
			t.Fatal(err)
		}
		// Every registered algorithm.
		for _, alg := range Algorithms() {
			res, err := Count(g, Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}
			if res.Triangles != want.Triangles {
				t.Errorf("%s/%s = %d, want %d", name, alg, res.Triangles, want.Triangles)
			}
		}
		// k=3 cliques.
		if got, _ := CountKCliques(g, 3, Options{}); got != want.Triangles {
			t.Errorf("%s/kclique3 = %d, want %d", name, got, want.Triangles)
		}
		// LOTUS over the compress round trip.
		dg, err := compress.Encode(g).Decode()
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		res, err := Count(dg, Options{Algorithm: AlgoLotus})
		if err != nil {
			t.Fatalf("%s/compressed: %v", name, err)
		}
		if res.Triangles != want.Triangles {
			t.Errorf("%s/compressed = %d, want %d", name, res.Triangles, want.Triangles)
		}
		// Streaming with CountNonHub covers the total.
		hubs := TopDegreeVertices(g, g.NumVertices()/50+1)
		sc, err := NewStreamingCounter(g.NumVertices(), hubs)
		if err != nil {
			t.Fatalf("%s: NewStreamingCounter: %v", name, err)
		}
		sc.CountNonHub = true
		for _, e := range g.Edges() {
			sc.AddEdge(e.U, e.V)
		}
		_, _, _, nnn := sc.Classes()
		if got := sc.HubTriangles() + nnn; got != want.Triangles {
			t.Errorf("%s/streaming = %d, want %d", name, got, want.Triangles)
		}
		// Per-vertex sums to 3T through both paths.
		c := NewLotusCounter(g, Options{})
		var sum uint64
		for _, x := range c.PerVertexTriangles() {
			sum += x
		}
		if sum != 3*want.Triangles {
			t.Errorf("%s/pervertex sum = %d, want %d", name, sum, 3*want.Triangles)
		}
		_ = pool
	}
}

func TestStatsConsistentWithLotusClasses(t *testing.T) {
	// Table 1's hub-triangle percentage at hub fraction f must match
	// the LOTUS class split when LOTUS is pinned to the same hub set
	// size (both select top-degree hubs with the same tie-break).
	for name, g := range integrationGraphs() {
		n := g.NumVertices()
		hubCount := n / 100
		if hubCount < 1 {
			hubCount = 1
		}
		res, err := Count(g, Options{HubCount: hubCount, FrontFraction: 0.0001})
		if err != nil {
			t.Fatal(err)
		}
		s := Stats(g) // 1% hubs
		if res.Triangles != s.Table1.TotalTriangles {
			t.Errorf("%s: lotus %d vs table1 %d triangles", name, res.Triangles, s.Table1.TotalTriangles)
		}
		if res.HubTriangles() != s.Table1.HubTriangles {
			t.Errorf("%s: hub triangles %d vs table1 %d", name, res.HubTriangles(), s.Table1.HubTriangles)
		}
	}
}

func TestComponentsConsistency(t *testing.T) {
	pool := sched.NewPool(2)
	g := PlantedTriangles(20, 7)
	sum := cc.Summarize(cc.LabelPropagation(g, pool))
	if sum.Components != 27 || sum.Isolated != 7 {
		t.Fatalf("components = %+v, want 27 with 7 isolated", sum)
	}
	// Triangle count per component: each non-isolated component is
	// one triangle.
	res, _ := Count(g, Options{})
	if res.Triangles != 20 {
		t.Fatalf("planted = %d", res.Triangles)
	}
}

func TestRelabelOrientationInvariance(t *testing.T) {
	// Triangle counts are invariant under arbitrary relabeling.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(60)
		var edges []Edge
		for i := 0; i < rng.Intn(4*n); i++ {
			edges = append(edges, Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g := FromEdges(edges, n)
		want, _ := Count(g, Options{})
		perm := rng.Perm(n)
		ra := make([]uint32, n)
		for i, p := range perm {
			ra[i] = uint32(p)
		}
		rg := g.Relabel(ra)
		got, _ := Count(rg, Options{})
		return got.Triangles == want.Triangles
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKCliqueMonotonicity(t *testing.T) {
	// On any graph, (k+1)-cliques exist only if k-cliques do, and
	// K_n's counts follow the binomial recurrence.
	pool := sched.NewPool(2)
	for name, g := range integrationGraphs() {
		og := g.Orient()
		prev := kclique.Count(og, 3, pool)
		for k := 4; k <= 6; k++ {
			cur := kclique.Count(og, k, pool)
			if cur > 0 && prev == 0 {
				t.Errorf("%s: %d-cliques with no %d-cliques", name, k, k-1)
			}
			prev = cur
		}
	}
	lg := core.Preprocess(Complete(9), core.Options{HubCount: 3, Pool: pool})
	for k, want := range map[int]uint64{3: 84, 4: 126, 5: 126, 6: 84, 9: 1} {
		if got := kclique.CountLotus(lg, k, pool); got != want {
			t.Errorf("K9 %d-cliques = %d, want %d", k, got, want)
		}
	}
}
