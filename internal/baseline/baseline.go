// Package baseline implements the comparator triangle-counting
// algorithms the paper evaluates LOTUS against (§5.1.4), re-expressed
// on this repository's substrate:
//
//   - NodeIterator — enumerate neighbour pairs per vertex (§2.2).
//   - EdgeIterator — intersect the endpoints of every edge (§2.2);
//     this is the GraphGrind TC kernel.
//   - Forward — Algorithm 1: degree ordering + N^< intersection with
//     merge join; this is the GAP kernel.
//   - Forward variants with binary-search and hash intersection
//     (§6.3 improvements).
//   - GBBS — Forward with the intersection work parallelized over
//     oriented edges rather than vertices.
//   - BBTC — block-based 2-D partitioned counting for load balance.
//
// Every function counts each triangle exactly once and returns the
// same total; cross-algorithm agreement is enforced by tests.
package baseline

import (
	"time"

	"lotustc/internal/graph"
	"lotustc/internal/intersect"
	"lotustc/internal/obs"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
)

// Kernel selects the set-intersection strategy for Forward.
type Kernel int

const (
	// KernelMerge is linear merge join (GAP's choice).
	KernelMerge Kernel = iota
	// KernelBinary is monotone binary search of the shorter list in
	// the longer ([31]).
	KernelBinary
	// KernelHash probes a hash set built from the shorter list
	// (Forward-hashed of Schank & Wagner).
	KernelHash
	// KernelGalloping is exponential search, best under extreme
	// length skew.
	KernelGalloping
)

// String names the kernel for reports.
func (k Kernel) String() string {
	switch k {
	case KernelMerge:
		return "merge"
	case KernelBinary:
		return "binary"
	case KernelHash:
		return "hash"
	case KernelGalloping:
		return "galloping"
	}
	return "unknown"
}

// prepareForward applies degree ordering and orientation, the
// preprocessing every Forward-family baseline performs. It returns nil
// when the pool is cancelled after the ordering: relabeling is the
// longest step (about half a second at R-MAT scale 18) and polls
// nothing, so skipping it keeps cancellation prompt.
func prepareForward(g *graph.Graph, pool *sched.Pool) *graph.Graph {
	ra := reorder.DegreeOrder(g)
	if pool.Cancelled() {
		return nil
	}
	return g.Relabel(ra).Orient()
}

// Forward counts triangles with Algorithm 1: degree ordering, then
// for every v and u ∈ N^<_v accumulate |N^<_v ∩ N^<_u|. End-to-end:
// includes its own preprocessing.
func Forward(g *graph.Graph, pool *sched.Pool, kernel Kernel) uint64 {
	return ForwardWithMetrics(g, pool, kernel, nil)
}

// ForwardWithMetrics is Forward with observability: when m is non-nil
// it records baseline.preprocess.ns, baseline.oriented_edges,
// baseline.count.ns and baseline.intersections. Counters accumulate
// worker-locally and publish in bulk, so a nil m costs nothing in the
// hot loop.
func ForwardWithMetrics(g *graph.Graph, pool *sched.Pool, kernel Kernel, m *obs.Metrics) uint64 {
	t0 := time.Now()
	og := prepareForward(g, pool)
	if og == nil {
		return 0 // cancelled; the engine discards the result
	}
	m.AddDuration("baseline.preprocess.ns", time.Since(t0))
	m.Set("baseline.oriented_edges", g.NumEdges())
	return CountOrientedWithMetrics(og, pool, kernel, m)
}

// CountOriented counts triangles on an already-oriented graph with
// the chosen kernel, parallelized over vertices.
func CountOriented(og *graph.Graph, pool *sched.Pool, kernel Kernel) uint64 {
	return CountOrientedWithMetrics(og, pool, kernel, nil)
}

// CountOrientedWithMetrics is CountOriented recording
// baseline.count.ns and baseline.intersections into m (nil disables).
func CountOrientedWithMetrics(og *graph.Graph, pool *sched.Pool, kernel Kernel, m *obs.Metrics) uint64 {
	t0 := time.Now()
	n := og.NumVertices()
	acc := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	// Per-worker hash sets sized to the max degree, reused across
	// intersections (allocation-free hot loop).
	var hashes []*intersect.HashSet
	if kernel == KernelHash {
		maxd := og.MaxDegree()
		hashes = make([]*intersect.HashSet, pool.Workers())
		for i := range hashes {
			hashes[i] = intersect.NewHashSet(maxd + 1)
		}
	}
	pool.For(n, 0, func(worker, start, end int) {
		var local, sets uint64
		for v := start; v < end; v++ {
			if pool.Cancelled() {
				break
			}
			nv := og.Neighbors(uint32(v))
			sets += uint64(len(nv))
			for _, u := range nv {
				nu := og.Neighbors(u)
				switch kernel {
				case KernelMerge:
					local += intersect.Merge(nv, nu)
				case KernelBinary:
					local += intersect.Binary(nv, nu)
				case KernelGalloping:
					local += intersect.Galloping(nv, nu)
				case KernelHash:
					a, b := nv, nu
					if len(a) > len(b) {
						a, b = b, a
					}
					local += intersect.Hash(hashes[worker], a, b)
				}
			}
		}
		acc.Add(worker, local)
		inter.Add(worker, sets)
	})
	m.Add("baseline.intersections", int64(inter.Sum()))
	m.AddDuration("baseline.count.ns", time.Since(t0))
	return acc.Sum()
}

// ForwardDegeneracy is the Forward algorithm over a degeneracy
// (k-core) ordering instead of degree ordering: every forward list is
// bounded by the graph's degeneracy, giving the best worst-case
// intersection sizes at the cost of a sequential peeling pass.
func ForwardDegeneracy(g *graph.Graph, pool *sched.Pool, kernel Kernel) uint64 {
	ra, _ := reorder.DegeneracyOrder(g)
	og := g.Relabel(ra).Orient()
	return CountOriented(og, pool, kernel)
}

// NodeIterator counts triangles by enumerating each pair of
// neighbours of every vertex and testing adjacency with binary
// search. Each triangle is found at all three of its vertices, so the
// total is divided by 3.
func NodeIterator(g *graph.Graph, pool *sched.Pool) uint64 {
	n := g.NumVertices()
	acc := sched.NewAccumulator(pool.Workers())
	pool.For(n, 0, func(worker, start, end int) {
		var local uint64
		for v := start; v < end; v++ {
			if pool.Cancelled() {
				break
			}
			nv := g.Neighbors(uint32(v))
			for i := 0; i < len(nv); i++ {
				for j := i + 1; j < len(nv); j++ {
					if g.HasEdge(nv[i], nv[j]) {
						local++
					}
				}
			}
		}
		acc.Add(worker, local)
	})
	return acc.Sum() / 3
}

// EdgeIterator counts triangles by intersecting the full neighbour
// lists of the two endpoints of every undirected edge (the
// GraphGrind strategy). Each triangle is seen from its three edges,
// with each intersection finding it once; iterating v's list only
// over u < v visits each undirected edge once, and the total is
// divided by 3... more precisely every triangle {a,b,c} is counted at
// edges (a,b),(a,c),(b,c), once each, so the sum is 3T.
func EdgeIterator(g *graph.Graph, pool *sched.Pool) uint64 {
	n := g.NumVertices()
	acc := sched.NewAccumulator(pool.Workers())
	pool.For(n, 0, func(worker, start, end int) {
		var local uint64
		for v := start; v < end; v++ {
			if pool.Cancelled() {
				break
			}
			nv := g.Neighbors(uint32(v))
			for _, u := range nv {
				if u >= uint32(v) {
					break // each undirected edge once (lists sorted)
				}
				local += intersect.Merge(nv, g.Neighbors(u))
			}
		}
		acc.Add(worker, local)
	})
	return acc.Sum() / 3
}

// GBBS counts triangles in the style of Dhulipala et al. [26]: the
// Forward algorithm with the intersection work distributed over
// oriented edges (flattened), so a single huge vertex cannot
// serialize a worker. Includes degree-ordering preprocessing.
func GBBS(g *graph.Graph, pool *sched.Pool) uint64 {
	og := prepareForward(g, pool)
	if og == nil {
		return 0
	}
	offsets := og.Offsets()
	nbrs := og.RawNeighbors()
	m := len(nbrs)
	acc := sched.NewAccumulator(pool.Workers())
	// Map flattened edge index -> source vertex with a scan per
	// chunk: workers claim edge ranges, locate the owning vertex by
	// binary search once, then advance.
	pool.For(m, 4096, func(worker, start, end int) {
		var local uint64
		v := searchOffsets(offsets, int64(start))
		for e := start; e < end; e++ {
			for int64(e) >= offsets[v+1] {
				v++
			}
			u := nbrs[e]
			local += intersect.Merge(og.Neighbors(uint32(v)), og.Neighbors(u))
		}
		acc.Add(worker, local)
	})
	return acc.Sum()
}

// searchOffsets returns the vertex whose edge range contains flat
// index e.
func searchOffsets(offsets []int64, e int64) int {
	lo, hi := 0, len(offsets)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if offsets[mid+1] <= e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BBTC counts triangles with block-based 2-D partitioning in the
// spirit of Yasar et al. [76]: the oriented edges are partitioned by
// (block of v, block of u) into blocks^2 independent tasks that are
// dynamically scheduled. Each oriented edge belongs to exactly one
// task, so each triangle is counted exactly once.
func BBTC(g *graph.Graph, pool *sched.Pool, blocks int) uint64 {
	if blocks < 1 {
		blocks = 2 * pool.Workers()
	}
	og := prepareForward(g, pool)
	if og == nil {
		return 0
	}
	n := og.NumVertices()
	if n == 0 {
		return 0
	}
	blockOf := func(v uint32) int { return int(uint64(v) * uint64(blocks) / uint64(n)) }
	blockStart := func(b int) uint32 { return uint32((uint64(b)*uint64(n) + uint64(blocks) - 1) / uint64(blocks)) }
	acc := sched.NewAccumulator(pool.Workers())
	pool.RunTasks(blocks*blocks, func(worker, task int) {
		bi := task / blocks
		bj := task % blocks
		var local uint64
		for v := blockStart(bi); v < blockStart(bi+1) && int(v) < n && !pool.Cancelled(); v++ {
			nv := og.Neighbors(v)
			for _, u := range nv {
				if blockOf(u) != bj {
					continue
				}
				local += intersect.Merge(nv, og.Neighbors(u))
			}
		}
		acc.Add(worker, local)
	})
	return acc.Sum()
}

// BruteForce counts triangles by testing all vertex triples through
// adjacency queries. O(|V|·d²) via neighbour pairs; usable only on
// tiny graphs and intended as the independent test oracle.
func BruteForce(g *graph.Graph) uint64 {
	var count uint64
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		nv := g.Neighbors(uint32(v))
		for i := 0; i < len(nv); i++ {
			if nv[i] >= uint32(v) {
				break
			}
			for j := i + 1; j < len(nv); j++ {
				if nv[j] >= uint32(v) {
					break
				}
				if g.HasEdge(nv[i], nv[j]) {
					count++
				}
			}
		}
	}
	return count
}
