// Package shard implements the sharded 2D LOTUS execution path: the
// relabeled vertex ID space is partitioned into p contiguous,
// work-balanced ranges, one independent LOTUS structure (a
// core.LotusShard) is built per range, and triangles are counted by
// enumerating the block triples (i <= j <= k) of the implied p×p
// grid — the in-process analogue of the 2D block-partitioned
// distributed TC designs (Tom & Karypis, arXiv:1907.09575; Sanders &
// Uhl, arXiv:2302.11443).
//
// The crucial design decision is that all shards share ONE global
// LOTUS relabeling, computed exactly as core.TryPreprocess computes
// it. Shard rows keep global relabeled IDs, so the hub set, the apex
// of every triangle, and therefore the class of every triangle
// (HHH/HHN/HNN/NNN) are identical to the flat structure's — the
// per-class counts come out bit-identical by construction, and the
// whole grid is simply a row-partition of the flat structure, which
// is itself the p = 1 grid: the engine's "lotus" kernel builds and
// counts a Grid of the requested dimension.
package shard

// PartitionByWeight cuts the ID space [0, len(w)) into p contiguous
// ranges of near-equal total weight: cut t is the smallest index
// whose weight prefix reaches t/p of the total. Ranges may be empty
// (a single huge weight can swallow several targets); they are always
// sorted, disjoint and cover [0, n).
func PartitionByWeight(w []uint64, p int) []VertexRange {
	n := len(w)
	prefix := make([]uint64, n+1)
	for i, x := range w {
		prefix[i+1] = prefix[i] + x
	}
	total := prefix[n]
	ranges := make([]VertexRange, p)
	cut := 0
	for t := 0; t < p; t++ {
		lo := cut
		if t == p-1 {
			cut = n
		} else {
			// Smallest index with prefix >= ceil(total*(t+1)/p). The
			// target sequence is nondecreasing, so the search resumes
			// at the previous cut.
			target := (total*uint64(t+1) + uint64(p) - 1) / uint64(p)
			for cut < n && prefix[cut] < target {
				cut++
			}
		}
		ranges[t] = VertexRange{Lo: uint32(lo), Hi: uint32(cut)}
	}
	return ranges
}
