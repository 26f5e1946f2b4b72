// Package coveredge implements cover-edge-based triangle counting
// (Bader et al., "Fast Triangle Counting", arXiv:2403.02997). A BFS
// from each component root assigns every vertex a level; a triangle's
// corners span at most two adjacent levels, so every triangle has at
// least one horizontal edge (both endpoints on the same level). The
// horizontal edges form a cover set: intersecting only their
// endpoints' neighbour lists finds every triangle, and weighting each
// find by the triangle's horizontal-edge count k (1 or 3 — two is
// impossible) makes the total exact.
//
// The kernel shines where LOTUS's hub machinery does not: flat,
// high-diameter graphs (meshes, road networks) have many BFS levels
// and few horizontal edges, so most of the graph is never intersected
// at all, and no hub structures are built.
package coveredge

import (
	"time"

	"lotustc/internal/graph"
	"lotustc/internal/intersect"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// Result carries the count and the cover-set characteristics.
type Result struct {
	Total uint64
	// Levels is the number of BFS levels (the eccentricity bound of
	// the deepest component, plus one).
	Levels int
	// CoverEdges is the number of horizontal edges — the only edges
	// whose neighbour lists the counting sweep intersects.
	CoverEdges uint64
	// BFSTime / CountTime split the wall time into the level
	// assignment and the weighted counting sweep.
	BFSTime, CountTime time.Duration
}

// Count counts g's triangles by the cover-edge method. The graph must
// be symmetric. The BFS is sequential (O(|V| + |E|), it is never the
// bottleneck); the weighted sweep is parallel over vertices on pool.
// Cancellation is polled in both stages; on a cancelled pool the
// return value is unspecified and the caller's context check governs.
func Count(g *graph.Graph, pool *sched.Pool, m *obs.Metrics) *Result {
	if pool == nil {
		pool = sched.NewPool(0)
	}
	n := g.NumVertices()
	res := &Result{}
	if n == 0 {
		return res
	}

	// Stage 1: BFS levels, one rooted walk per component.
	t0 := time.Now()
	levels := make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	// Every vertex is enqueued exactly once over all components, so
	// one |V|-entry queue serves every walk without growing.
	queue := make([]uint32, n)
	head, tail := 0, 0
	maxLevel := int32(0)
	for r := 0; r < n; r++ {
		if levels[r] >= 0 {
			continue
		}
		if pool.Cancelled() {
			return res
		}
		levels[r] = 0
		queue[tail] = uint32(r)
		tail++
		for ; head < tail; head++ {
			v := queue[head]
			lv := levels[v]
			if lv > maxLevel {
				maxLevel = lv
			}
			if head&1023 == 0 && pool.Cancelled() {
				return res
			}
			for _, u := range g.Neighbors(v) {
				if levels[u] < 0 {
					levels[u] = lv + 1
					queue[tail] = u
					tail++
				}
			}
		}
	}
	res.Levels = int(maxLevel) + 1
	res.BFSTime = time.Since(t0)

	// Stage 2: enumerate each horizontal edge (u, v), u < v, once, and
	// intersect the full neighbour lists. A common neighbour w on the
	// same level closes an all-horizontal triangle (k = 3, found at
	// each of its three edges: weight 1); any other level means this
	// is the triangle's only horizontal edge (k = 1, found once:
	// weight 3). The accumulated sum is 3x the triangle count.
	t1 := time.Now()
	workers := pool.Workers()
	triAcc := sched.NewAccumulator(workers)
	coverAcc := sched.NewAccumulator(workers)
	pool.For(n, 0, func(w, start, end int) {
		var weighted, cover uint64
		for v := start; v < end; v++ {
			if pool.Cancelled() {
				return
			}
			nv := g.Neighbors(uint32(v))
			lv := levels[v]
			for _, u := range nv {
				if u >= uint32(v) {
					break // lists are ascending: each edge once
				}
				if levels[u] != lv {
					continue
				}
				cover++
				weighted += weightedIntersect(nv, g.Neighbors(u), levels, lv)
			}
		}
		triAcc.Add(w, weighted)
		coverAcc.Add(w, cover)
	})
	res.Total = triAcc.Sum() / 3
	res.CoverEdges = coverAcc.Sum()
	res.CountTime = time.Since(t1)

	m.AddDuration(obs.CoverBFSNS, res.BFSTime)
	m.AddDuration(obs.CoverCountNS, res.CountTime)
	m.Set(obs.CoverLevels, int64(res.Levels))
	m.Set(obs.CoverEdges, int64(res.CoverEdges))
	return res
}

// weightedIntersect sums the weights of the triangles closed over one
// horizontal edge: 1 for a common neighbour on the same level (all
// three edges horizontal), 3 otherwise. Dispatch mirrors the engine's
// adaptive intersection policy: merge join for comparable lists,
// galloping when one list dwarfs the other.
func weightedIntersect(a, b []uint32, levels []int32, lv int32) uint64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if intersect.UseGalloping(len(a), len(b)) {
		var s uint64
		for _, x := range a {
			i := intersect.LowerBound(b, x)
			if i < len(b) && b[i] == x {
				if levels[x] == lv {
					s++
				} else {
					s += 3
				}
			}
			b = b[i:]
			if len(b) == 0 {
				break
			}
		}
		return s
	}
	var s uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if levels[a[i]] == lv {
				s++
			} else {
				s += 3
			}
			i++
			j++
		}
	}
	return s
}
