package stats

import (
	"math"
	"testing"

	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

var pool = sched.NewPool(2)

func TestTable1EdgeSplitSumsTo100(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 1))
	t1 := ComputeTable1(g, 0.01)
	if s := t1.TotalHubPct + t1.NonHubPct; math.Abs(s-100) > 1e-6 {
		t.Fatalf("edge split sums to %v", s)
	}
	if math.Abs(t1.TotalHubPct-(t1.HubToHubPct+t1.HubToNonHubPct)) > 1e-9 {
		t.Fatal("TotalHubPct inconsistent")
	}
}

func TestTable1TriangleCountMatchesOracle(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 2))
	t1 := ComputeTable1(g, 0.01)
	if want := baseline.BruteForce(g); t1.TotalTriangles != want {
		t.Fatalf("Table1 triangles = %d, want %d", t1.TotalTriangles, want)
	}
	if t1.HubTriangles > t1.TotalTriangles {
		t.Fatal("hub triangles exceed total")
	}
}

func TestTable1HubAndSpokes(t *testing.T) {
	// 4 hub clique + 396 leaves, each on 2 hubs: with 1% hubs (4
	// vertices = the clique), every triangle contains a hub and every
	// edge touches a hub.
	g := gen.HubAndSpokes(4, 396, 2, 3)
	t1 := ComputeTable1(g, 0.01)
	if t1.HubTrianglePct != 100 {
		t.Fatalf("hub triangle pct = %v, want 100", t1.HubTrianglePct)
	}
	if t1.NonHubPct != 0 {
		t.Fatalf("non-hub edge pct = %v, want 0", t1.NonHubPct)
	}
	if t1.RelativeDensity <= 1 {
		t.Fatalf("hub clique relative density = %v, want >> 1", t1.RelativeDensity)
	}
}

func TestTable1SkewedVsUniformDensity(t *testing.T) {
	// The hub sub-graph of a skewed graph must be far denser relative
	// to the whole graph than that of a uniform graph (§3.4).
	rmat := ComputeTable1(gen.RMAT(gen.DefaultRMAT(11, 8, 5)), 0.01)
	er := ComputeTable1(gen.ErdosRenyi(1<<11, 8<<11, 5), 0.01)
	if rmat.RelativeDensity <= er.RelativeDensity {
		t.Fatalf("RMAT RD %v <= ER RD %v", rmat.RelativeDensity, er.RelativeDensity)
	}
	if rmat.TotalHubPct <= er.TotalHubPct {
		t.Fatalf("RMAT hub edge pct %v <= ER %v", rmat.TotalHubPct, er.TotalHubPct)
	}
}

func TestTable1FruitlessRange(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 8))
	t1 := ComputeTable1(g, 0.01)
	if t1.FruitlessSearchPct < 0 || t1.FruitlessSearchPct > 100 {
		t.Fatalf("fruitless pct out of range: %v", t1.FruitlessSearchPct)
	}
}

func TestTable1Degenerate(t *testing.T) {
	empty := graph.FromEdges(nil, graph.BuildOptions{})
	if got := ComputeTable1(empty, 0.01); got.TotalTriangles != 0 {
		t.Fatal("empty graph produced triangles")
	}
	single := graph.FromEdges([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{})
	t1 := ComputeTable1(single, 0.01)
	if t1.TotalHubPct != 100 {
		t.Fatalf("one edge with 1 hub: hub pct = %v, want 100", t1.TotalHubPct)
	}
}

func TestTable7Accounting(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	lg := core.Preprocess(g, core.Options{HubCount: 128, Pool: pool})
	t7 := ComputeTable7(g, lg)
	if t7.CSXEdgesBytes != 4*g.NumEdges() {
		t.Fatalf("CSXEdgesBytes = %d", t7.CSXEdgesBytes)
	}
	if t7.CSXBytes != t7.CSXEdgesBytes+8*int64(g.NumVertices()+1) {
		t.Fatalf("CSXBytes = %d", t7.CSXBytes)
	}
	if t7.LotusBytes != lg.TopologyBytes() {
		t.Fatal("LotusBytes mismatch")
	}
	wantGrowth := 100 * float64(t7.LotusBytes-t7.CSXBytes) / float64(t7.CSXBytes)
	if math.Abs(t7.GrowthPct-wantGrowth) > 1e-9 {
		t.Fatalf("GrowthPct = %v, want %v", t7.GrowthPct, wantGrowth)
	}
}

func TestTable7HESavesBytes(t *testing.T) {
	// On a hub-dominated graph, HE holds most edges at 2 bytes each,
	// so LOTUS's edge storage must undercut CSX's 4 bytes/edge even
	// after adding the second index array.
	g := gen.HubAndSpokes(64, 4000, 8, 1)
	lg := core.Preprocess(g, core.Options{HubCount: 64, Pool: pool})
	split := ComputeEdgeSplit(lg)
	if split.HEPct < 99 {
		t.Fatalf("expected ~all edges in HE, got %v%%", split.HEPct)
	}
	t7 := ComputeTable7(g, lg)
	edgeBytesLotus := 2*lg.Shards[0].HE.NumEdges() + 4*lg.Shards[0].NHE.NumEdges()
	if edgeBytesLotus >= t7.CSXEdgesBytes {
		t.Fatalf("LOTUS edge bytes %d not below CSX %d", edgeBytesLotus, t7.CSXEdgesBytes)
	}
}

func TestTable8AndEdgeSplit(t *testing.T) {
	g := gen.Complete(64)
	lg := core.Preprocess(g, core.Options{HubCount: 64, Pool: pool})
	t8 := ComputeTable8(lg)
	if t8.DensityPct != 100 {
		t.Fatalf("K64 all-hubs density = %v, want 100", t8.DensityPct)
	}
	split := ComputeEdgeSplit(lg)
	if split.HEPct != 100 || split.NHEEdges != 0 {
		t.Fatalf("K64 all-hubs split = %+v", split)
	}
}

func TestTriangleSplit(t *testing.T) {
	g := gen.HubAndSpokes(6, 40, 3, 2)
	lg := core.Preprocess(g, core.Options{HubCount: 6, Pool: pool})
	res := lg.Count(pool)
	ts := ComputeTriangleSplit(res)
	if ts.HubPct != 100 || ts.NonHubPct != 0 {
		t.Fatalf("split = %+v, want all hub", ts)
	}
	// Degenerate: zero triangles.
	lgZero := core.Preprocess(gen.Ring(32), core.Options{HubCount: 4, Pool: pool})
	if s := ComputeTriangleSplit(lgZero.Count(pool)); s.HubPct != 0 || s.NonHubPct != 0 {
		t.Fatalf("zero-triangle split = %+v", s)
	}
}

func TestDegreeAssortativity(t *testing.T) {
	// A star is maximally disassortative: r = -1.
	if r := DegreeAssortativity(gen.Star(20)); math.Abs(r+1) > 1e-9 {
		t.Fatalf("star assortativity = %v, want -1", r)
	}
	// Degree-regular graphs have undefined correlation -> 0.
	if r := DegreeAssortativity(gen.Ring(20)); r != 0 {
		t.Fatalf("ring assortativity = %v, want 0", r)
	}
	if r := DegreeAssortativity(gen.Complete(8)); r != 0 {
		t.Fatalf("clique assortativity = %v, want 0", r)
	}
	// Empty graph.
	if r := DegreeAssortativity(graph.FromEdges(nil, graph.BuildOptions{NumVertices: 3})); r != 0 {
		t.Fatalf("empty assortativity = %v", r)
	}
	// BA preferential attachment is known to be near-neutral to
	// slightly disassortative; just require a sane range.
	if r := DegreeAssortativity(gen.BarabasiAlbert(2000, 3, 4)); r < -1 || r > 1 {
		t.Fatalf("BA assortativity out of range: %v", r)
	}
	// Hub-and-spokes (hubs to leaves) must be strongly negative.
	if r := DegreeAssortativity(gen.HubAndSpokes(4, 400, 2, 1)); r > -0.5 {
		t.Fatalf("hub-and-spokes assortativity = %v, want << 0", r)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := gen.Star(9) // center degree 8, leaves degree 1
	h := DegreeHistogram(g)
	// bucket(1) = 1 (leaves: 8), bucket for 8 = 4 (since 8>>1.. 8 needs 4 shifts)
	var total int64
	for _, c := range h {
		total += c
	}
	if total != 9 {
		t.Fatalf("histogram covers %d vertices, want 9", total)
	}
	if h[1] != 8 {
		t.Fatalf("leaf bucket = %d, want 8", h[1])
	}
	if h[4] != 1 {
		t.Fatalf("center bucket = %d, want 1", h[4])
	}
}

func TestTable1MatchesPaperShape(t *testing.T) {
	// Qualitative Table 1 shape on a strongly skewed generator: hubs
	// (1% of vertices) should be incident to well over a third of all
	// edges, and most triangles should contain a hub.
	g := gen.ChungLu(gen.ChungLuParams{N: 1 << 12, M: 64 << 12, Gamma: 2.0, Seed: 4})
	t1 := ComputeTable1(g, 0.01)
	if t1.TotalHubPct < 35 {
		t.Fatalf("hub edge pct = %.1f, want > 35 on a skewed graph", t1.TotalHubPct)
	}
	if t1.HubTrianglePct < 60 {
		t.Fatalf("hub triangle pct = %.1f, want > 60 on a skewed graph", t1.HubTrianglePct)
	}
	if t1.RelativeDensity < 50 {
		t.Fatalf("relative density = %.1f, want >> 1", t1.RelativeDensity)
	}
}
