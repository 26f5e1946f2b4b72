package core

import (
	"fmt"

	"lotustc/internal/bitarray"
	"lotustc/internal/intersect"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// Phase1Kernel selects how phase 1 probes the H2H bit array for each
// h1 row (the DESIGN.md "Kernel selection" section discusses the
// trade-off).
type Phase1Kernel int

const (
	// Phase1Auto picks per row: the word kernel when the row's pair
	// count makes word-parallel AND+popcount cheaper than single-bit
	// probes, the scalar kernel otherwise. This is the default.
	Phase1Auto Phase1Kernel = iota
	// Phase1Scalar probes each (h1, h2) pair as a single IsSet bit
	// test — the pre-PR5 behaviour, kept as the ablation baseline.
	Phase1Scalar
	// Phase1Word intersects each h1 row against a per-worker bitmap
	// of the vertex's hub neighbours, 64 pairs per AND+popcount.
	Phase1Word
)

// String names the kernel for flags and reports.
func (k Phase1Kernel) String() string {
	switch k {
	case Phase1Scalar:
		return "scalar"
	case Phase1Word:
		return "word"
	default:
		return "auto"
	}
}

// ParsePhase1Kernel maps a flag value to a kernel. The empty string
// selects the default (auto).
func ParsePhase1Kernel(s string) (Phase1Kernel, error) {
	switch s {
	case "", "auto":
		return Phase1Auto, nil
	case "scalar":
		return Phase1Scalar, nil
	case "word":
		return Phase1Word, nil
	}
	return Phase1Auto, fmt.Errorf("unknown phase-1 kernel %q (want auto, scalar or word)", s)
}

// IntersectKernel selects the intersection strategy for the NNN phase.
// HNN always probes HE rows against a per-worker hub bitmap
// (intersect.HubBitmap), which needs no dispatch.
type IntersectKernel int

const (
	// IntersectBitmap marks the apex row NHE.N_v once in a per-worker
	// intersect.VertexBitmap and probes every NHE.N_u against it
	// branch-free — the bitmap-lookup strategy of §2.2. This is the
	// default.
	IntersectBitmap IntersectKernel = iota
	// IntersectMerge merge-joins NHE.N_v with each NHE.N_u — the
	// paper's §4.4.3 choice, kept as the ablation baseline.
	IntersectMerge
)

// String names the kernel for flags and reports.
func (k IntersectKernel) String() string {
	if k == IntersectMerge {
		return "merge"
	}
	return "bitmap"
}

// ParseIntersectKernel maps a flag value to a kernel. The empty
// string selects the default (bitmap).
func ParseIntersectKernel(s string) (IntersectKernel, error) {
	switch s {
	case "", "bitmap":
		return IntersectBitmap, nil
	case "merge":
		return IntersectMerge, nil
	}
	return IntersectBitmap, fmt.Errorf("unknown intersect kernel %q (want bitmap or merge)", s)
}

// CountRows is the one NNN intersection kernel (Alg 3 lines 10-12).
// For one apex row nv it returns the sum of |nv ∩ N_u| over u in us,
// where rows holds N_u at index u-base (base is 0 for the flat NHE,
// the shard's range start for a shard's). Under IntersectBitmap nv is marked once in the
// worker's vertex bitmap bm, which must cover every ID of nv and of
// the probed rows; each N_u then costs one load and a shift per
// element, and the marks are cleared in O(|nv|) before returning, so
// bm is all-zero again. Under IntersectMerge, nv is merge-joined with
// each N_u and bm is unused. The whole row runs without a
// cancellation poll; callers poll between rows.
func (k IntersectKernel) CountRows(bm intersect.VertexBitmap, nv, us []uint32, rows *NHE32, base uint32) uint64 {
	var n uint64
	if k == IntersectMerge {
		for _, u := range us {
			n += intersect.Merge(nv, rows.Neighbors(u-base))
		}
		return n
	}
	bm.Mark(nv)
	for _, u := range us {
		n += bm.Count(rows.Neighbors(u - base))
	}
	bm.Clear(nv)
	return n
}

// DispatchCounter names the counter that records the NNN rows k
// probed: nnn.dispatch.bitmap or nnn.dispatch.merge.
func (k IntersectKernel) DispatchCounter() string {
	if k == IntersectMerge {
		return obs.NNNDispatchMerge
	}
	return obs.NNNDispatchBitmap
}

// wordRowThreshold reports whether the word kernel is the cheaper way
// to probe row h1 when the scalar path would test `pairs` individual
// bits: the word path reads (h1+63)/64 row words (bitmap words are
// L1-resident), the scalar path does `pairs` dependent bit probes. The
// factor 2 absorbs the word path's per-row overhead (shifted two-word
// assembly) and the amortized bitmap population.
func wordRowThreshold(pairs int, h1 uint32) bool {
	return pairs >= 2*((int(h1)>>6)+1)
}

// Phase1Stats carries the observability counts of CountHubPairs calls:
// Pairs is the number of (h1, h2) pairs covered (the H2H probes), Rows
// the h1 rows visited (one cancellation poll each), WordOps the row
// words the word probe read, and WordRows and ScalarRows how the rows
// were routed.
type Phase1Stats struct {
	Pairs, Rows, WordOps, WordRows, ScalarRows uint64
}

// CountHubPairs is the phase-1 kernel (Alg 3 lines 4-6). For one
// vertex it counts the hub pairs (h1, h2) with h1 = h1s[i] for i in
// [lo, hi), h2 in h2s, h2 < h1 and the H2H bit (h1, h2) set; rows must
// hold every such h1 row. Both lists must be strictly ascending.
// countBlocks passes a flat count's vertex its whole HE row as both
// lists, and a grid block's apex its row restricted to the blocks that
// hold h2 and h1.
//
// Two probes implement a row. The scalar probe tests each qualifying
// h2 with one bit load: O(pairs) dependent loads. The word probe marks
// h2s once in the worker's hub bitmap, then ANDs the h1 row, read
// word-wise and masked to h2 < h1, against it and popcounts:
// O(h1/64) word ops. Both count the same set, because the h2s entries
// below h1 are exactly the ones the row mask keeps. Phase1Auto picks
// per row by wordRowThreshold. The pool is polled once per row, so a
// huge vertex stays interruptible, and bm is all-zero again on every
// return, the cancellation exit included.
func CountHubPairs(k Phase1Kernel, pool *sched.Pool, rows *bitarray.TriRows, bm *intersect.HubBitmap, h2s, h1s []uint16, lo, hi int) (found uint64, st Phase1Stats) {
	populated := false
	below := 0 // h2s[:below] holds the h2 < h1
	for _, h1u := range h1s[lo:hi] {
		st.Rows++
		if pool.Cancelled() {
			break
		}
		h1 := uint32(h1u)
		for below < len(h2s) && uint32(h2s[below]) < h1 {
			below++
		}
		if below == 0 {
			continue
		}
		// The h1(h1-1)/2 base is computed once per h1 and the row is
		// scanned for consecutive h2 (§4.4.1).
		row := rows.Row(h1)
		if k == Phase1Word || (k == Phase1Auto && wordRowThreshold(below, h1)) {
			if !populated {
				bm.Mark(h2s)
				populated = true
			}
			found += row.AndCount(bm[:])
			st.WordOps += uint64(row.NumWords())
			st.WordRows++
		} else {
			for _, h2 := range h2s[:below] {
				if row.IsSet(uint32(h2)) {
					found++
				}
			}
			st.ScalarRows++
		}
		st.Pairs += uint64(below)
	}
	if populated {
		bm.Clear(h2s)
	}
	return found, st
}
