package lotustc

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestCountAllAlgorithmsAgree(t *testing.T) {
	g := RMAT(10, 8, 42)
	want, err := Count(g, Options{Algorithm: AlgoForward})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		res, err := Count(g, Options{Algorithm: alg, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Triangles != want.Triangles {
			t.Errorf("%s = %d, want %d", alg, res.Triangles, want.Triangles)
		}
		if res.Algorithm != alg {
			t.Errorf("%s: result labeled %s", alg, res.Algorithm)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed not measured", alg)
		}
	}
}

func TestCountDefaultsToLotus(t *testing.T) {
	g := Complete(16)
	res, err := Count(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgoLotus {
		t.Fatalf("default algorithm = %s", res.Algorithm)
	}
	if res.Triangles != 560 {
		t.Fatalf("K16 = %d, want 560", res.Triangles)
	}
	if res.HHH+res.HHN+res.HNN+res.NNN != res.Triangles {
		t.Fatal("class sum mismatch")
	}
	if res.Preprocess <= 0 || res.Phase1 <= 0 {
		t.Fatal("lotus phase times missing")
	}
}

func TestCountUnknownAlgorithm(t *testing.T) {
	if _, err := Count(Complete(4), Options{Algorithm: "nope"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestGraphRoundTripFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.lotg")
	g := RMAT(8, 8, 1)
	if err := SaveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := Count(g, Options{})
	r2, _ := Count(g2, Options{})
	if r1.Triangles != r2.Triangles {
		t.Fatal("round-tripped graph counts differently")
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
	_ = os.Remove(path)
}

func TestFromEdges(t *testing.T) {
	g := FromEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 0)
	res, _ := Count(g, Options{})
	if res.Triangles != 1 {
		t.Fatalf("triangle = %d", res.Triangles)
	}
	if FromEdges(nil, 7).NumVertices() != 7 {
		t.Fatal("pinned vertex count ignored")
	}
}

func TestPerVertexTriangles(t *testing.T) {
	// K4: every vertex is in C(3,2)=3 triangles.
	tri := PerVertexTriangles(Complete(4), 2)
	for v, c := range tri {
		if c != 3 {
			t.Fatalf("K4 vertex %d in %d triangles, want 3", v, c)
		}
	}
	// Planted: each triangle vertex in exactly 1; padding in 0.
	tri = PerVertexTriangles(PlantedTriangles(3, 2), 2)
	for v := 0; v < 9; v++ {
		if tri[v] != 1 {
			t.Fatalf("planted vertex %d count %d", v, tri[v])
		}
	}
	for v := 9; v < 11; v++ {
		if tri[v] != 0 {
			t.Fatalf("padding vertex %d count %d", v, tri[v])
		}
	}
}

func TestPerVertexSumsToThreeT(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		var edges []Edge
		for i := 0; i < 3*n; i++ {
			edges = append(edges, Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g := FromEdges(edges, n)
		tri := PerVertexTriangles(g, 4)
		var sum uint64
		for _, c := range tri {
			sum += c
		}
		res, _ := Count(g, Options{})
		return sum == 3*res.Triangles
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	lcc := LocalClusteringCoefficients(Complete(5), 2)
	for v, c := range lcc {
		if math.Abs(c-1) > 1e-9 {
			t.Fatalf("K5 lcc[%d] = %v, want 1", v, c)
		}
	}
	if g := GlobalClusteringCoefficient(Complete(5), 2); math.Abs(g-1) > 1e-9 {
		t.Fatalf("K5 transitivity = %v, want 1", g)
	}
	if g := GlobalClusteringCoefficient(Star(10), 2); g != 0 {
		t.Fatalf("star transitivity = %v, want 0", g)
	}
	if lccStar := LocalClusteringCoefficients(Star(5), 1); lccStar[0] != 0 {
		t.Fatal("star center lcc should be 0")
	}
}

func TestTopDegreeVertices(t *testing.T) {
	g := Star(10)
	top := TopDegreeVertices(g, 3)
	if top[0] != 0 {
		t.Fatalf("star center not top: %v", top)
	}
	if len(TopDegreeVertices(g, 100)) != 10 {
		t.Fatal("k > n should clamp")
	}
	for _, k := range []int{0, -1, -100} {
		if top := TopDegreeVertices(g, k); len(top) != 0 {
			t.Fatalf("k = %d: got %v, want empty", k, top)
		}
	}
	if top := TopDegreeVertices(Star(0), 3); len(top) != 0 {
		t.Fatalf("empty graph: got %v, want empty", top)
	}
}

func TestStreamingFacade(t *testing.T) {
	g := RMAT(8, 8, 5)
	hubs := TopDegreeVertices(g, 8)
	sc, err := NewStreamingCounter(g.NumVertices(), hubs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		sc.AddEdge(e.U, e.V)
	}
	if sc.HubTriangles() == 0 {
		t.Fatal("no hub triangles streamed on RMAT graph")
	}
	full, _ := Count(g, Options{})
	if sc.HubTriangles() > full.Triangles {
		t.Fatal("hub triangles exceed total")
	}
}

func TestStatsFacade(t *testing.T) {
	s := Stats(RMAT(10, 8, 2))
	if s.Vertices != 1<<10 || s.Edges == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Table1.TotalHubPct <= 0 {
		t.Fatal("table1 not computed")
	}
	if s.Gini <= 0 {
		t.Fatal("gini not computed")
	}
}

func TestTCRate(t *testing.T) {
	r := &Result{Elapsed: 2e9} // 2 s
	if got := r.TCRate(1000); math.Abs(got-500) > 1e-9 {
		t.Fatalf("TCRate = %v, want 500", got)
	}
	if (&Result{}).TCRate(10) != 0 {
		t.Fatal("zero elapsed should yield 0 rate")
	}
}

func TestLotusCounterHandle(t *testing.T) {
	g := RMAT(10, 8, 21)
	c := NewLotusCounter(g, Options{Workers: 2})
	r1 := c.Count()
	r2 := c.Count() // reuse without re-preprocessing
	if r1.Triangles != r2.Triangles {
		t.Fatal("repeat counts differ")
	}
	direct, _ := Count(g, Options{})
	if r1.Triangles != direct.Triangles {
		t.Fatalf("handle %d != direct %d", r1.Triangles, direct.Triangles)
	}
	if c.HubCount() < 1 || c.TopologyBytes() <= 0 {
		t.Fatal("metadata missing")
	}
	// Persistence round trip.
	path := filepath.Join(t.TempDir(), "c.lots")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadLotusCounter(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Count().Triangles != r1.Triangles {
		t.Fatal("restored counter disagrees")
	}
	if _, err := LoadLotusCounter(filepath.Join(t.TempDir(), "nope"), 1); err == nil {
		t.Fatal("missing file accepted")
	}
	// Per-vertex counts in original IDs, from the handle and from the
	// one-shot helper, match a brute-force count.
	want := bruteForcePerVertex(g)
	for name, got := range map[string][]uint64{
		"LotusCounter":       c.PerVertexTriangles(),
		"PerVertexTriangles": PerVertexTriangles(g, 2),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d counts for %d vertices", name, len(got), len(want))
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: vertex %d in %d triangles, brute force %d", name, v, got[v], want[v])
			}
		}
	}
}

// bruteForcePerVertex enumerates every triangle u < v < w of g by
// adjacency lookup and bumps its three corners.
func bruteForcePerVertex(g *Graph) []uint64 {
	want := make([]uint64, g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if v <= uint32(u) {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w > v && g.HasEdge(uint32(u), w) {
					want[u]++
					want[v]++
					want[w]++
				}
			}
		}
	}
	return want
}

// TestCountKCliquesRejectsShards: k-cliques count over the flat
// structure, so a grid dimension above 1 is an error rather than a
// silently flat count; 1 is the flat structure.
func TestCountKCliquesRejectsShards(t *testing.T) {
	g := Complete(8)
	if _, err := CountKCliques(g, 4, Options{Shards: 3}); err == nil {
		t.Fatal("CountKCliques accepted Shards = 3")
	}
	if n, err := CountKCliques(g, 4, Options{Shards: 1}); err != nil || n != 70 {
		t.Fatalf("CountKCliques(K8, 4, Shards 1) = %d, %v; want 70", n, err)
	}
}

func TestCountKCliques(t *testing.T) {
	g := Complete(8)
	for k, want := range map[int]uint64{1: 8, 2: 28, 3: 56, 4: 70, 5: 56, 8: 1} {
		lotus, err := CountKCliques(g, k, Options{HubCount: 3})
		if err != nil {
			t.Fatal(err)
		}
		generic, err := CountKCliques(g, k, Options{Algorithm: AlgoForward})
		if err != nil {
			t.Fatal(err)
		}
		if lotus != want || generic != want {
			t.Errorf("k=%d: lotus %d generic %d, want %d", k, lotus, generic, want)
		}
	}
	// k=3 must equal triangle counting.
	rg := RMAT(9, 8, 4)
	tri, _ := Count(rg, Options{})
	k3, _ := CountKCliques(rg, 3, Options{})
	if k3 != tri.Triangles {
		t.Fatalf("k=3 %d != triangles %d", k3, tri.Triangles)
	}
}

func TestGeneratorsFacade(t *testing.T) {
	if ChungLu(100, 400, 2.3, 1).NumVertices() != 100 {
		t.Fatal("ChungLu facade broken")
	}
	if ChungLuCapped(100, 400, 2.3, 0.1, 1).NumVertices() != 100 {
		t.Fatal("ChungLuCapped facade broken")
	}
	if ErdosRenyi(50, 100, 1).NumVertices() != 50 {
		t.Fatal("ER facade broken")
	}
	if Ring(5).NumEdges() != 5 {
		t.Fatal("Ring facade broken")
	}
	if Grid(2, 3).NumVertices() != 6 {
		t.Fatal("Grid facade broken")
	}
	if HubAndSpokes(3, 10, 2, 1).NumVertices() != 13 {
		t.Fatal("HubAndSpokes facade broken")
	}
	res, _ := Count(HubAndSpokes(3, 10, 2, 1), Options{HubCount: 3})
	if res.HubTriangles() != res.Triangles {
		t.Fatal("hub-and-spokes should have only hub triangles")
	}
	sbm := SBM(300, 3, 0.2, 0.01, 2)
	if sbm.NumVertices() != 300 || sbm.NumEdges() == 0 {
		t.Fatal("SBM facade broken")
	}
	if s := Stats(sbm); s.Assortativity < -1 || s.Assortativity > 1 {
		t.Fatalf("assortativity out of range: %v", s.Assortativity)
	}
}
