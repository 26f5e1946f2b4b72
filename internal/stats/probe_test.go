package stats

import (
	"math"
	"testing"

	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
)

func probe(t *testing.T, g *graph.Graph, hubs int) Probe {
	t.Helper()
	return ComputeProbe(g, hubs, sched.NewPool(0))
}

// TestProbeBasics: counts and averages on a known small graph.
func TestProbeBasics(t *testing.T) {
	g := gen.Complete(10) // n=10, m=45, every degree 9
	p := probe(t, g, 4)
	if p.Vertices != 10 || p.Edges != 45 {
		t.Fatalf("n=%d m=%d", p.Vertices, p.Edges)
	}
	if p.AvgDegree != 9 || p.MaxDegree != 9 {
		t.Fatalf("avg=%v max=%d", p.AvgDegree, p.MaxDegree)
	}
	if p.DegreeGini != 0 {
		t.Fatalf("uniform degrees must have gini 0, got %v", p.DegreeGini)
	}
	if p.HubCount != 4 || p.HubDegreeMin != 9 {
		t.Fatalf("hubs=%d min=%d", p.HubCount, p.HubDegreeMin)
	}
	// 4 hubs in K10: hub degree sum 36, h2h = C(4,2) = 6 edges.
	// Coverage = (36-6)/45, h2h pct = 6/45, density = 100%.
	if want := 100 * float64(30) / 45; math.Abs(p.HubEdgeCoveragePct-want) > 1e-9 {
		t.Fatalf("coverage %v, want %v", p.HubEdgeCoveragePct, want)
	}
	if want := 100 * float64(6) / 45; math.Abs(p.H2HEdgePct-want) > 1e-9 {
		t.Fatalf("h2h pct %v, want %v", p.H2HEdgePct, want)
	}
	if math.Abs(p.H2HDensityPct-100) > 1e-9 {
		t.Fatalf("h2h density %v, want 100", p.H2HDensityPct)
	}
}

// TestGiniOrdering: skewed degree sequences must score far above flat
// ones — the star/grid gap is what the policy's skew reading rests on.
func TestGiniOrdering(t *testing.T) {
	// A star's leaves still hold half the degree mass, so its Gini
	// tops out near 0.5 — the analytic value for {n-1, 1, ..., 1}.
	star := probe(t, gen.Star(1000), 0)
	grid := probe(t, gen.Grid(32, 32), 0)
	if star.DegreeGini < 0.45 {
		t.Errorf("star gini %v, want near 0.5", star.DegreeGini)
	}
	if grid.DegreeGini > 0.1 {
		t.Errorf("grid gini %v, want near 0", grid.DegreeGini)
	}
}

// TestHubSetMatchesLOTUS: the hub threshold, tie quota and coverage
// must describe the same top-degree set (degree desc, ID asc ties)
// the LOTUS relabeling uses — verified against a brute-force
// selection on a graph dense in degree ties.
func TestHubSetMatchesLOTUS(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	n := g.NumVertices()
	for _, hubs := range []int{1, 7, 64, n / 2} {
		p := probe(t, g, hubs)
		h := core.Options{HubCount: hubs}.EffectiveHubCount(n)
		if p.HubCount != int64(h) {
			t.Fatalf("hubs=%d: HubCount %d, want %d", hubs, p.HubCount, h)
		}
		// Brute-force the same selection.
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		// Selection sort of the top h by (degree desc, ID asc) is fine
		// at this scale.
		for i := 0; i < h; i++ {
			best := i
			for j := i + 1; j < n; j++ {
				di, dj := g.Degree(uint32(ids[best])), g.Degree(uint32(ids[j]))
				if dj > di || (dj == di && ids[j] < ids[best]) {
					best = j
				}
			}
			ids[i], ids[best] = ids[best], ids[i]
		}
		isHub := make(map[uint32]bool, h)
		minDeg := int64(math.MaxInt64)
		var degSum, h2h int64
		for _, v := range ids[:h] {
			isHub[uint32(v)] = true
			d := int64(g.Degree(uint32(v)))
			degSum += d
			if d < minDeg {
				minDeg = d
			}
		}
		for _, v := range ids[:h] {
			for _, u := range g.Neighbors(uint32(v)) {
				if u < uint32(v) && isHub[u] {
					h2h++
				}
			}
		}
		m := g.NumEdges()
		if p.HubDegreeMin != minDeg {
			t.Fatalf("hubs=%d: HubDegreeMin %d, want %d", hubs, p.HubDegreeMin, minDeg)
		}
		if want := 100 * float64(degSum-h2h) / float64(m); math.Abs(p.HubEdgeCoveragePct-want) > 1e-9 {
			t.Fatalf("hubs=%d: coverage %v, want %v", hubs, p.HubEdgeCoveragePct, want)
		}
		if want := 100 * float64(h2h) / float64(m); math.Abs(p.H2HEdgePct-want) > 1e-9 {
			t.Fatalf("hubs=%d: h2h pct %v, want %v", hubs, p.H2HEdgePct, want)
		}
	}
}

// TestProbeHubSetMatchesLotusStructure holds the probe's hub set to the
// structure LOTUS actually builds: HubDegreeMin is the degree of the
// vertex relabeled to h-1 (the last hub), and the probe's H2H edge
// count is the H2H bit array's population, on tie-heavy and skewed
// graphs across hub counts and worker counts.
func TestProbeHubSetMatchesLotusStructure(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":    gen.Grid(40, 50),
		"trigrid": gen.TriGrid(30, 40),
		"ring":    gen.Ring(700),
		"er":      gen.ErdosRenyi(1500, 6000, 4),
		"rmat":    gen.RMAT(gen.DefaultRMAT(11, 8, 5)),
	}
	for name, g := range graphs {
		n := g.NumVertices()
		m := g.NumEdges()
		for _, hubs := range []int{0, 1, 7, 64, 333, n / 2, n} {
			lg := core.Preprocess(g, core.Options{HubCount: hubs})
			h := int(lg.HubCount)
			last := reorder.Inverse(lg.Relabeling)[h-1]
			for _, workers := range []int{1, 2} {
				p := ComputeProbe(g, hubs, sched.NewPool(workers))
				if p.HubCount != int64(h) {
					t.Fatalf("%s hubs=%d: probe HubCount %d, structure %d", name, hubs, p.HubCount, h)
				}
				if want := int64(g.Degree(last)); p.HubDegreeMin != want {
					t.Fatalf("%s hubs=%d workers=%d: HubDegreeMin %d, degree of new ID %d is %d",
						name, hubs, workers, p.HubDegreeMin, h-1, want)
				}
				if got, want := int64(math.Round(p.H2HEdgePct*float64(m)/100)), int64(lg.Shards[0].H2H.PopCount()); got != want {
					t.Fatalf("%s hubs=%d workers=%d: probe H2H edges %d, H2H bits %d", name, hubs, workers, got, want)
				}
			}
		}
	}
}

// TestDeterminismAcrossWorkers: the probe must produce identical
// floats regardless of pool width — per-chunk partials merge in chunk
// order, not completion order.
func TestDeterminismAcrossWorkers(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 11))
	base := ComputeProbe(g, 0, sched.NewPool(1))
	for _, w := range []int{2, 3, 8} {
		p := ComputeProbe(g, 0, sched.NewPool(w))
		if p != base {
			t.Fatalf("workers=%d: probe differs:\n%+v\n%+v", w, p, base)
		}
	}
}

// TestEmptyAndDegenerate: zero vertices, zero edges, single vertex.
func TestEmptyAndDegenerate(t *testing.T) {
	if p := probe(t, graph.FromEdges(nil, graph.BuildOptions{}), 0); p.Vertices != 0 || p.Edges != 0 {
		t.Fatalf("empty: %+v", p)
	}
	p := probe(t, graph.FromEdges(nil, graph.BuildOptions{NumVertices: 1}), 0)
	if p.Vertices != 1 || p.AvgDegree != 0 || p.MaxDegree != 0 {
		t.Fatalf("single vertex: %+v", p)
	}
}

// TestStatsMapKeys: the wire flattening carries every probe field.
func TestStatsMapKeys(t *testing.T) {
	m := probe(t, gen.Complete(20), 0).StatsMap()
	for _, k := range []string{"vertices", "edges", "avg_degree", "max_degree",
		"degree_gini", "hub_count", "hub_degree_min",
		"hub_edge_coverage_pct", "h2h_edge_pct", "h2h_density_pct"} {
		if _, ok := m[k]; !ok {
			t.Errorf("StatsMap missing %q", k)
		}
	}
	if len(m) != 10 {
		t.Errorf("StatsMap has %d keys, want 10", len(m))
	}
}
