// Package kclique generalizes triangle counting to k-cliques — the
// first future-work direction of the paper (§7): "TC is the simplest
// form of the k-clique counting problem ... the skewed statistics on
// triangles containing hubs will become even more skewed for larger
// cliques."
//
// Two counters are provided:
//
//   - Count: the classic ordered enumeration on an oriented graph
//     (each k-clique counted exactly once at its maximum vertex).
//   - CountLotus: the LOTUS-flavoured variant. All-hub cliques are
//     counted on dense per-hub bitsets (word-parallel candidate
//     intersection — the k-clique analog of the H2H bit array), and
//     cliques containing a non-hub are rooted at non-hub vertices
//     using the split HE/NHE neighbour lists.
//
// Both return identical totals (enforced by tests).
package kclique

import (
	"math/bits"

	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

// Count counts k-cliques on an oriented graph (neighbour lists
// restricted to lower IDs, as produced by graph.Orient). k >= 1;
// k == 1 returns |V|, k == 2 returns |E|, k == 3 returns triangles.
func Count(og *graph.Graph, k int, pool *sched.Pool) uint64 {
	if k < 1 {
		return 0
	}
	n := og.NumVertices()
	if k == 1 {
		return uint64(n)
	}
	if k == 2 {
		return uint64(og.NumDirectedEdges())
	}
	acc := sched.NewAccumulator(pool.Workers())
	pool.For(n, 0, func(worker, start, end int) {
		// Scratch candidate buffers, one per recursion depth.
		scratch := make([][]uint32, k)
		var local uint64
		for v := start; v < end; v++ {
			local += cliqueRec(og, og.Neighbors(uint32(v)), k-1, scratch)
		}
		acc.Add(worker, local)
	})
	return acc.Sum()
}

// cliqueRec counts (depth)-cliques within cand, all of whose members
// are mutually adjacent to the already-chosen prefix.
func cliqueRec(og *graph.Graph, cand []uint32, depth int, scratch [][]uint32) uint64 {
	if depth == 1 {
		return uint64(len(cand))
	}
	var total uint64
	buf := scratch[depth]
	for i, u := range cand {
		// Intersect the remaining candidates with N^<(u). Only
		// candidates below u matter, and cand is sorted, so the
		// prefix cand[:i] suffices.
		buf = intersectInto(buf[:0], cand[:i], og.Neighbors(u))
		if len(buf) >= depth-1 {
			total += cliqueRec(og, buf, depth-1, scratch)
		}
	}
	scratch[depth] = buf
	return total
}

// intersectInto writes a ∩ b into dst (sorted inputs) and returns it.
func intersectInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// CountLotus counts k-cliques using the LOTUS structures of a flat
// (P = 1) LotusGraph, whose one shard holds every row. A clique's
// maximum vertex is a hub iff all its vertices are hubs (hubs occupy
// the lowest IDs), so the count splits exactly into:
//
//   - all-hub cliques, enumerated over dense hub bitsets with
//     word-parallel intersection, and
//   - cliques with >= 1 non-hub, rooted at their (non-hub) maximum
//     vertex using the concatenated HE/NHE lists.
func CountLotus(lg *core.LotusGraph, k int, pool *sched.Pool) uint64 {
	if k < 1 {
		return 0
	}
	s := lg.Flat()
	n := lg.NumVertices()
	if k == 1 {
		return uint64(n)
	}
	if k == 2 {
		return uint64(s.HE.NumEdges() + s.NHE.NumEdges())
	}
	hubs := int(lg.HubCount)
	if hubs > n {
		hubs = n
	}
	words := (hubs + 63) / 64
	// Dense bitset rows over hubs: row[h] bit w set iff w < h and
	// (h,w) is an edge. Built from the HE rows of hubs.
	rows := make([][]uint64, hubs)
	flat := make([]uint64, hubs*words)
	for h := 0; h < hubs; h++ {
		rows[h] = flat[h*words : (h+1)*words]
		for _, w := range s.HE.Neighbors(uint32(h)) {
			rows[h][w>>6] |= 1 << (uint(w) & 63)
		}
	}

	acc := sched.NewAccumulator(pool.Workers())
	// Part 1: all-hub cliques, one task per hub root.
	pool.For(hubs, 0, func(worker, start, end int) {
		scratch := make([][]uint64, k)
		for d := range scratch {
			scratch[d] = make([]uint64, words)
		}
		var local uint64
		for h := start; h < end; h++ {
			local += hubCliqueRec(rows, rows[h], k-1, scratch)
		}
		acc.Add(worker, local)
	})
	// Part 2: cliques rooted at non-hubs. Candidate lists are the
	// concatenated (HE ++ NHE) N^< lists, which stay sorted because
	// every hub ID precedes every non-hub ID.
	pool.For(n-hubs, 0, func(worker, start, end int) {
		scratch := make([][]uint32, k)
		var local uint64
		for i := start; i < end; i++ {
			v := uint32(hubs + i)
			cand := concatNeighbors(s, v, nil)
			local += lotusCliqueRec(s, cand, k-1, scratch)
		}
		acc.Add(worker, local)
	})
	return acc.Sum()
}

// concatNeighbors returns HE[v] ++ NHE[v] as uint32s, appended to dst.
func concatNeighbors(s *core.LotusShard, v uint32, dst []uint32) []uint32 {
	for _, h := range s.HE.Neighbors(v) {
		dst = append(dst, uint32(h))
	}
	return append(dst, s.NHE.Neighbors(v)...)
}

// lotusCliqueRec mirrors cliqueRec over the split neighbour lists.
func lotusCliqueRec(s *core.LotusShard, cand []uint32, depth int, scratch [][]uint32) uint64 {
	if depth == 1 {
		return uint64(len(cand))
	}
	var total uint64
	buf := scratch[depth]
	nbuf := make([]uint32, 0, 16)
	for i, u := range cand {
		nbuf = concatNeighbors(s, u, nbuf[:0])
		buf = intersectInto(buf[:0], cand[:i], nbuf)
		if len(buf) >= depth-1 {
			total += lotusCliqueRec(s, buf, depth-1, scratch)
		}
	}
	scratch[depth] = buf
	return total
}

// hubCliqueRec counts (depth)-cliques inside the candidate bitset
// using word-parallel AND with each member's row.
func hubCliqueRec(rows [][]uint64, cand []uint64, depth int, scratch [][]uint64) uint64 {
	if depth == 1 {
		var c uint64
		for _, w := range cand {
			c += uint64(bits.OnesCount64(w))
		}
		return c
	}
	var total uint64
	next := scratch[depth]
	for wi, w := range cand {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			u := wi*64 + b
			row := rows[u]
			nonEmpty := false
			for x := range next {
				next[x] = cand[x] & row[x]
				if next[x] != 0 {
					nonEmpty = true
				}
			}
			if nonEmpty || depth-1 == 1 {
				total += hubCliqueRec(rows, next, depth-1, scratch)
			}
		}
	}
	return total
}
