// Package approx implements approximate triangle counting and the
// paper's §6.2 observation that LOTUS improves the precision of
// approximate counting: because hub triangles (~93% of all triangles,
// §3.4) can be counted exactly from compact hub structures, only the
// small NNN remainder needs sampling.
//
// Three estimators are provided:
//
//   - Doulion: Tsourakakis et al.'s edge sparsification — keep each
//     edge with probability p, count exactly on the sparsified graph,
//     scale by 1/p^3.
//   - WedgeSampling: sample random wedges, measure the closure
//     probability, scale by wedges/3.
//   - Hybrid: LOTUS-exact HHH+HHN+HNN plus Doulion-sampled NNN — the
//     §6.2 hybrid. Its error is bounded by the NNN share, so on
//     skewed graphs it is dramatically more precise than Doulion at
//     equal sampling cost.
package approx

import (
	"math/rand"

	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

// Doulion estimates the triangle count by keeping each undirected
// edge with probability p (seeded) and scaling the exact count of the
// sparsified graph by p^-3. p in (0, 1]; p == 1 is exact.
func Doulion(g *graph.Graph, p float64, seed int64, pool *sched.Pool) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return float64(exactCount(g, pool))
	}
	rng := rand.New(rand.NewSource(seed))
	var kept []graph.Edge
	for _, e := range g.Edges() {
		if rng.Float64() < p {
			kept = append(kept, e)
		}
	}
	sg := graph.FromEdges(kept, graph.BuildOptions{NumVertices: g.NumVertices()})
	return float64(exactCount(sg, pool)) / (p * p * p)
}

// exactCount counts g's triangles with LOTUS. A build cut short by a
// cancelled pool counts 0: like any count on a cancelled pool the
// result is partial, and the caller's context reports the abort.
func exactCount(g *graph.Graph, pool *sched.Pool) uint64 {
	lg := core.Preprocess(g, core.Options{Pool: pool})
	if lg == nil {
		return 0
	}
	return lg.Count(pool).Total
}

// WedgeSampling estimates the triangle count by sampling `samples`
// uniform random wedges (paths u-v-w centred at v) and measuring the
// fraction that close into triangles: T ≈ closed/samples * W / 3,
// where W is the total wedge count.
func WedgeSampling(g *graph.Graph, samples int, seed int64) float64 {
	n := g.NumVertices()
	if n == 0 || samples <= 0 {
		return 0
	}
	// Wedge counts and their prefix sums for weighted vertex picks.
	prefix := make([]float64, n+1)
	for v := 0; v < n; v++ {
		d := float64(g.Degree(uint32(v)))
		prefix[v+1] = prefix[v] + d*(d-1)/2
	}
	totalWedges := prefix[n]
	if totalWedges == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	pickCenter := func() uint32 {
		x := rng.Float64() * totalWedges
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if prefix[mid+1] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return uint32(lo)
	}
	closed := 0
	for i := 0; i < samples; i++ {
		v := pickCenter()
		nb := g.Neighbors(v)
		a := rng.Intn(len(nb))
		b := rng.Intn(len(nb) - 1)
		if b >= a {
			b++
		}
		if g.HasEdge(nb[a], nb[b]) {
			closed++
		}
	}
	return float64(closed) / float64(samples) * totalWedges / 3
}

// HybridResult carries the §6.2 hybrid estimate's parts.
type HybridResult struct {
	// ExactHub is the exactly counted HHH+HHN+HNN total.
	ExactHub uint64
	// EstimatedNNN is the sampled non-hub triangle estimate.
	EstimatedNNN float64
	// Estimate is the combined total.
	Estimate float64
	// NNNShare is the estimated fraction of triangles that had to be
	// sampled — the error exposure of the hybrid.
	NNNShare float64
}

// Hybrid counts hub triangles exactly with LOTUS phases 1-2 and
// estimates the NNN remainder with Doulion sparsification at
// probability p on the non-hub sub-graph.
func Hybrid(g *graph.Graph, p float64, seed int64, opt core.Options, pool *sched.Pool) HybridResult {
	lg := core.Preprocess(g, opt)
	if lg == nil {
		return HybridResult{} // cancelled: partial, see exactCount
	}
	// Exact hub phases only; NNN is replaced by sampling.
	res := lg.CountWithOptions(pool, core.CountOptions{SkipNNN: p < 1})
	exact := res.HHH + res.HHN + res.HNN
	var nnn float64
	if p >= 1 {
		nnn = float64(res.NNN)
	} else {
		sub := lg.NonHubSubgraph()
		rng := rand.New(rand.NewSource(seed))
		var kept []graph.Edge
		for _, e := range sub.Edges() {
			if rng.Float64() < p {
				kept = append(kept, e)
			}
		}
		sg := graph.FromEdges(kept, graph.BuildOptions{NumVertices: sub.NumVertices()})
		nnn = float64(exactCount(sg, pool)) / (p * p * p)
	}
	est := float64(exact) + nnn
	share := 0.0
	if est > 0 {
		share = nnn / est
	}
	return HybridResult{ExactHub: exact, EstimatedNNN: nnn, Estimate: est, NNNShare: share}
}
