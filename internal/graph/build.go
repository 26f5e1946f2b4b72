package graph

import (
	"slices"

	"lotustc/internal/sched"
)

// BuildOptions control how FromEdges normalizes a raw edge list.
type BuildOptions struct {
	// KeepSelfLoops retains self edges. LOTUS preprocessing skips
	// self-edges (Alg 2 line 11-12); the default removes them at
	// build time so every algorithm sees the same simple graph.
	KeepSelfLoops bool
	// NumVertices pins |V|. When zero, |V| is 1 + the maximum vertex
	// ID appearing in the edge list (or 0 for an empty list).
	NumVertices int
}

// FromEdges builds a symmetric, deduplicated, sorted CSX graph from an
// arbitrary undirected edge list. Both directions of every edge are
// materialized, parallel edges collapse to one, and self loops are
// dropped unless KeepSelfLoops is set.
func FromEdges(edges []Edge, opt BuildOptions) *Graph {
	n := opt.NumVertices
	for _, e := range edges {
		if int(e.U)+1 > n {
			n = int(e.U) + 1
		}
		if int(e.V)+1 > n {
			n = int(e.V) + 1
		}
	}

	// Count both directions per endpoint.
	deg := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			if !opt.KeepSelfLoops {
				continue
			}
			deg[e.U+1]++
			continue
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	offsets := deg
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	nbrs := make([]uint32, offsets[n])
	push := func(v, u uint32) {
		nbrs[fill[v]] = u
		fill[v]++
	}
	for _, e := range edges {
		if e.U == e.V {
			if opt.KeepSelfLoops {
				push(e.U, e.V)
			}
			continue
		}
		push(e.U, e.V)
		push(e.V, e.U)
	}

	// Sort and deduplicate every adjacency list in place, in parallel;
	// fill, spent once the slots are filled, takes each kept length.
	sched.NewPool(0).For(n, 0, func(_, start, end int) {
		for v := start; v < end; v++ {
			seg := nbrs[offsets[v]:offsets[v+1]]
			slices.Sort(seg)
			fill[v] = int64(len(slices.Compact(seg)))
		}
	})
	// Compact the kept prefixes leftwards, rewriting offsets as we go
	// (offsets[v] is read before it is overwritten).
	w := int64(0)
	for v := 0; v < n; v++ {
		lo, k := offsets[v], fill[v]
		copy(nbrs[w:w+k], nbrs[lo:lo+k])
		offsets[v] = w
		w += k
	}
	offsets[n] = w
	return &Graph{offsets: offsets, nbrs: nbrs[:w:w]}
}
