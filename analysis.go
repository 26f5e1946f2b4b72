package lotustc

import (
	"fmt"

	"lotustc/internal/approx"
	"lotustc/internal/core"
	"lotustc/internal/kclique"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
	"lotustc/internal/stats"
)

// PerVertexTriangles returns, for every vertex, the number of
// triangles it participates in — the building block of local
// clustering analysis. It builds the flat LOTUS structure and runs
// its per-vertex count, as LotusCounter.PerVertexTriangles does.
// Workers 0 uses GOMAXPROCS.
func PerVertexTriangles(g *Graph, workers int) []uint64 {
	pool := sched.NewPool(workers)
	return perVertexTriangles(core.Preprocess(g, core.Options{Pool: pool}), pool)
}

// LocalClusteringCoefficients returns lcc(v) = 2T(v)/(d(v)(d(v)-1))
// for every vertex (0 for degree < 2).
func LocalClusteringCoefficients(g *Graph, workers int) []float64 {
	tri := PerVertexTriangles(g, workers)
	out := make([]float64, len(tri))
	for v := range tri {
		d := g.Degree(uint32(v))
		if d >= 2 {
			out[v] = 2 * float64(tri[v]) / (float64(d) * float64(d-1))
		}
	}
	return out
}

// GlobalClusteringCoefficient returns 3*triangles / wedges — the
// transitivity of the graph.
func GlobalClusteringCoefficient(g *Graph, workers int) float64 {
	res, err := Count(g, Options{Algorithm: AlgoLotus, Workers: workers})
	if err != nil {
		return 0
	}
	var wedges uint64
	for v := 0; v < g.NumVertices(); v++ {
		d := uint64(g.Degree(uint32(v)))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(res.Triangles) / float64(wedges)
}

// TopDegreeVertices returns the k highest-degree vertex IDs of g
// (ties broken by ID) — the hub set for StreamingCounter. k is clamped
// to [0, |V|], so k <= 0 yields an empty slice.
func TopDegreeVertices(g *Graph, k int) []uint32 {
	return reorder.TopDegree(g, k)
}

// StreamingCounter counts hub triangles over an edge stream with a
// memory-resident H2H structure, the paper's §6.2 extension.
type StreamingCounter = core.Streaming

// NewStreamingCounter creates a streaming counter over n vertices
// with the given hub IDs (see TopDegreeVertices). Hub IDs must be
// distinct vertices in [0, n); invalid hub sets are rejected with an
// error so a long-lived caller never crashes on bad input.
func NewStreamingCounter(n int, hubIDs []uint32) (*StreamingCounter, error) {
	return core.NewStreaming(n, hubIDs)
}

// CountKCliques counts k-cliques (k >= 1; k == 3 is triangle
// counting), the paper's §7 future-work extension. With AlgoLotus
// (or empty) the hub-aware counter is used: all-hub cliques are
// enumerated on dense bitsets and mixed cliques on the split HE/NHE
// lists; any other algorithm selects the generic ordered enumeration.
// k-cliques count over the flat structure, so Options.Shards above 1
// is an error.
func CountKCliques(g *Graph, k int, opt Options) (uint64, error) {
	if opt.Shards > 1 {
		return 0, fmt.Errorf("lotustc: k-cliques count over the flat structure, not a %d-way grid", opt.Shards)
	}
	pool := sched.NewPool(opt.Workers)
	switch opt.Algorithm {
	case "", AlgoLotus:
		lg := core.Preprocess(g, core.Options{
			HubCount: opt.HubCount, FrontFraction: opt.FrontFraction, Pool: pool,
		})
		return kclique.CountLotus(lg, k, pool), nil
	default:
		return kclique.Count(g.Orient(), k, pool), nil
	}
}

// EstimateTriangles approximates the triangle count. Method selects
// the estimator:
//
//   - "doulion": keep each edge with probability p, scale by p^-3.
//   - "wedge": sample `samples` random wedges (p ignored).
//   - "hybrid": the paper's §6.2 hybrid — LOTUS-exact hub triangles
//     plus Doulion-sampled NNN; far tighter than doulion at equal p
//     on skewed graphs because only the small NNN share is sampled.
func EstimateTriangles(g *Graph, method string, p float64, samples int, seed int64) (float64, error) {
	pool := sched.NewPool(0)
	switch method {
	case "doulion":
		return approx.Doulion(g, p, seed, pool), nil
	case "wedge":
		return approx.WedgeSampling(g, samples, seed), nil
	case "hybrid":
		h := approx.Hybrid(g, p, seed, core.Options{Pool: pool}, pool)
		return h.Estimate, nil
	default:
		return 0, fmt.Errorf("lotustc: unknown estimator %q", method)
	}
}

// GraphStats bundles the paper's topology statistics for one graph.
type GraphStats struct {
	Vertices  int
	Edges     int64
	MaxDegree int
	Gini      float64
	// Assortativity is Newman's degree-degree correlation r.
	Assortativity float64
	Table1        stats.Table1
}

// Stats computes Table 1-style characteristics of g with the paper's
// 1% hub fraction.
func Stats(g *Graph) GraphStats {
	return GraphStats{
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges(),
		MaxDegree:     g.MaxDegree(),
		Gini:          g.GiniOfDegrees(),
		Assortativity: stats.DegreeAssortativity(g),
		Table1:        stats.ComputeTable1(g, 0.01),
	}
}
