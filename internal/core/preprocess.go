package core

import (
	"fmt"
	"slices"
	"time"

	"lotustc/internal/bitarray"
	"lotustc/internal/graph"
	"lotustc/internal/intersect"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// VertexRange is a contiguous range [Lo, Hi) of relabeled vertex IDs.
// A LotusGraph partitions the relabeled ID space into such ranges;
// because LOTUS relabeling puts all hubs at the lowest IDs, a range's
// hub part (IDs < HubCount) and non-hub part are each contiguous too.
type VertexRange struct {
	Lo, Hi uint32
}

// Len returns the number of vertices in the range.
func (r VertexRange) Len() int { return int(r.Hi) - int(r.Lo) }

// Contains reports whether relabeled ID v falls in the range.
func (r VertexRange) Contains(v uint32) bool { return v >= r.Lo && v < r.Hi }

// LotusShard is the LOTUS structure restricted to one vertex range of
// the relabeled ID space: the HE and NHE rows of every v in Range
// (indexed locally by v - Range.Lo) and the H2H rows of the range's
// hubs. The flat structure is the one shard of a p = 1 LotusGraph,
// over [0, |V|). Neighbour IDs inside rows stay global relabeled IDs
// — the same IDs the flat structure uses — which is what makes a
// grid's count bit-identical per class: hubness is still
// "ID < HubCount" and every triangle is attributed to the same apex
// row.
type LotusShard struct {
	// Range is the relabeled-ID range this shard holds rows for.
	Range VertexRange
	// HubCount is the global hub count (shared by every shard of a
	// grid; it is a property of the relabeling, not of the shard).
	HubCount uint32
	// H2H holds the hub-to-hub rows [Range.Lo, min(Range.Hi,
	// HubCount)) — the shard's slice of the whole bit array. The
	// per-shard hub budget: each shard pays only for its own hubs'
	// rows, so a p-way grid splits the quadratic H2H footprint across
	// p cache-sized slices.
	H2H *bitarray.TriRows
	// HE and NHE hold the hub-/non-hub-neighbour rows of the range's
	// vertices, locally indexed (row v lives at v - Range.Lo).
	HE  *HE16
	NHE *NHE32

	numVertices int // global |V|, for cross-checks
}

// NumVertices returns the global vertex count of the graph the shard
// was built from.
func (s *LotusShard) NumVertices() int { return s.numVertices }

// HENeighbors returns v's hub-neighbour list (ascending, global IDs).
// v must be in Range.
func (s *LotusShard) HENeighbors(v uint32) []uint16 { return s.HE.Neighbors(v - s.Range.Lo) }

// NHENeighbors returns v's non-hub-neighbour list (ascending, global
// IDs). v must be in Range.
func (s *LotusShard) NHENeighbors(v uint32) []uint32 { return s.NHE.Neighbors(v - s.Range.Lo) }

// TopologyBytes returns the shard's structure footprint under the
// Table 7 accounting: two 8-byte index arrays over the local rows,
// the H2H slice, 2 bytes per HE edge and 4 per NHE edge.
func (s *LotusShard) TopologyBytes() int64 {
	idx := 2 * 8 * int64(s.Range.Len()+1)
	return idx + s.H2H.SizeBytes() + 2*s.HE.NumEdges() + 4*s.NHE.NumEdges()
}

// buildRows is the Algorithm 2 walk (lines 10-23) of
// Plan.BuildShard. It fills the HE and NHE rows of every
// relabeled vertex in r, stored at v - r.Lo, and sets the H2H bit of
// every hub-to-hub edge whose higher end lies in r; h2h must hold
// those rows. Pass 1 counts each row's hub and non-hub neighbours;
// pass 2 writes them, sets the H2H bits and sorts each row in
// setEdges fashion. A dense HE row (denseRowMin) is sorted by marking
// it in the worker's hub bitmap and draining the ⌈H/64⌉ words back in
// order; shorter rows and NHE rows are comparison-sorted. IDs are
// mapped through ra on the fly rather than through a materialized
// relabeled graph, and every original vertex is visited even for a
// narrow range: the relabeling scatters a range's rows across the
// original ID space. The wall times of the
// two passes go to m as preprocess.walk.count.ns and
// preprocess.walk.fill.ns.
func buildRows(g *graph.Graph, pool *sched.Pool, ra []uint32, hubCount uint32, r VertexRange, h2h *bitarray.TriRows, m *obs.Metrics) (*HE16, *NHE32) {
	t0 := time.Now()
	rows := r.Len()
	heCnt := make([]int64, rows+1)
	nheCnt := make([]int64, rows+1)
	pool.For(len(ra), 0, func(_, start, end int) {
		for vOld := start; vOld < end; vOld++ {
			if pool.Cancelled() {
				return
			}
			vNew := ra[vOld]
			if !r.Contains(vNew) {
				continue
			}
			var he, nhe int64
			for _, uOld := range g.Neighbors(uint32(vOld)) {
				uNew := ra[uOld]
				if uNew >= vNew { // self edges were removed at build;
					continue // symmetric edge (Alg 2 line 14)
				}
				if uNew < hubCount {
					he++
				} else {
					nhe++
				}
			}
			heCnt[vNew-r.Lo+1] = he
			nheCnt[vNew-r.Lo+1] = nhe
		}
	})
	for v := 0; v < rows; v++ {
		heCnt[v+1] += heCnt[v]
		nheCnt[v+1] += nheCnt[v]
	}
	he := &HE16{offsets: heCnt, nbrs: make([]uint16, heCnt[rows])}
	nhe := &NHE32{offsets: nheCnt, nbrs: make([]uint32, nheCnt[rows])}
	t1 := time.Now()
	m.AddDuration(obs.PreprocessWalkCountNS, t1.Sub(t0))

	words := hubWords(hubCount)
	minDense := denseRowMin(hubCount)
	bms := sched.NewWorkerLocal(pool.Workers(), func() *intersect.HubBitmap { return new(intersect.HubBitmap) })
	pool.For(len(ra), 0, func(worker, start, end int) {
		for vOld := start; vOld < end; vOld++ {
			if pool.Cancelled() {
				return
			}
			vNew := ra[vOld]
			if !r.Contains(vNew) {
				continue
			}
			local := vNew - r.Lo
			hw := he.offsets[local]
			nw := nhe.offsets[local]
			for _, uOld := range g.Neighbors(uint32(vOld)) {
				uNew := ra[uOld]
				if uNew >= vNew {
					continue
				}
				if uNew < hubCount {
					he.nbrs[hw] = uint16(uNew)
					hw++
					if vNew < hubCount {
						h2h.Set(vNew, uNew) // Alg 2 line 19
					}
				} else {
					nhe.nbrs[nw] = uNew
					nw++
				}
			}
			if row := he.nbrs[he.offsets[local]:hw]; len(row) >= minDense {
				bm := bms.Get(worker)
				bm.Mark(row)
				bm.Drain(row, words)
			} else {
				slices.Sort(row)
			}
			slices.Sort(nhe.nbrs[nhe.offsets[local]:nw])
		}
	})
	m.AddDuration(obs.PreprocessWalkFillNS, time.Since(t1))
	return he, nhe
}

// Validate checks the shard's structural invariants over the rows of
// every v in its range (stored at v - Range.Lo): sorted rows of
// neighbours below v, HE IDs below HubCount and NHE IDs at or above
// it, empty NHE rows for hubs, and the H2H rows agreeing with the HE
// rows of the hubs they hold. Intended for tests.
func (s *LotusShard) Validate() error {
	r, hubCount, he, nhe, h2h := s.Range, s.HubCount, s.HE, s.NHE, s.H2H
	if r.Lo > r.Hi {
		return fmt.Errorf("shard range [%d, %d) inverted", r.Lo, r.Hi)
	}
	for v := r.Lo; v < r.Hi; v++ {
		henb := he.Neighbors(v - r.Lo)
		for i, h := range henb {
			if uint32(h) >= hubCount || uint32(h) >= v {
				return fmt.Errorf("vertex %d: HE neighbour %d out of range", v, h)
			}
			if i > 0 && henb[i-1] >= h {
				return fmt.Errorf("vertex %d: HE unsorted", v)
			}
			if v < hubCount && !h2h.IsSet(v, uint32(h)) {
				return fmt.Errorf("H2H missing hub edge (%d,%d)", v, h)
			}
		}
		nhenb := nhe.Neighbors(v - r.Lo)
		if v < hubCount && len(nhenb) != 0 {
			return fmt.Errorf("hub %d has non-empty NHE row", v)
		}
		for i, u := range nhenb {
			if u < hubCount || u >= v {
				return fmt.Errorf("vertex %d: NHE neighbour %d out of range", v, u)
			}
			if i > 0 && nhenb[i-1] >= u {
				return fmt.Errorf("vertex %d: NHE unsorted", v)
			}
		}
	}
	var hubEdges uint64
	for v := h2h.Lo(); v < h2h.Hi(); v++ {
		hubEdges += uint64(he.Degree(v - r.Lo))
	}
	if got := h2h.PopCount(); got != hubEdges {
		return fmt.Errorf("H2H popcount %d != hub-to-hub edge count %d", got, hubEdges)
	}
	return nil
}
