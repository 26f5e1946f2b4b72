package core

import (
	"sync/atomic"

	"lotustc/internal/sched"
)

// CountPerVertex counts, for every (relabeled) vertex, the number of
// triangles it participates in, using the three LOTUS phases. s must
// hold every vertex's rows: the one shard of a P = 1 LotusGraph. The
// per-vertex totals sum to 3x the triangle count. Use the relabeling
// (reorder.Inverse) to map the counts back to original vertex IDs.
//
// Unlike the scalar Count, triangle corners here are scattered across
// vertices owned by other workers, so increments use atomics; the
// phase structure (and its locality) is unchanged.
func (s *LotusShard) CountPerVertex(pool *sched.Pool) []uint64 {
	if pool == nil {
		pool = sched.NewPool(0)
	}
	n := s.numVertices
	counts := make([]uint64, n)
	bump := func(v uint32) { atomic.AddUint64(&counts[v], 1) }

	// Phase 1: HHH + HHN.
	pool.For(n, 0, func(_, start, end int) {
		for v := start; v < end; v++ {
			nv := s.HE.Neighbors(uint32(v))
			for i := 1; i < len(nv); i++ {
				h1 := uint32(nv[i])
				row := s.H2H.Row(h1)
				for j := 0; j < i; j++ {
					h2 := uint32(nv[j])
					if row.IsSet(h2) {
						bump(uint32(v))
						bump(h1)
						bump(h2)
					}
				}
			}
		}
	})

	// Phase 2: HNN — mark HE.N_v in the worker's hub bitmap; every set
	// bit an HE.N_u element hits names the closing hub h.
	sc := new(CountScratch).forWorkers(pool.Workers())
	pool.For(n, 0, func(worker, start, end int) {
		bm := sc.hubs.Get(worker)
		for v := start; v < end; v++ {
			hv := s.HE.Neighbors(uint32(v))
			if len(hv) == 0 {
				continue
			}
			bm.Mark(hv)
			for _, u := range s.NHE.Neighbors(uint32(v)) {
				for _, h := range s.HE.Neighbors(u) {
					if bm.Has(h) {
						bump(uint32(v))
						bump(u)
						bump(uint32(h))
					}
				}
			}
			bm.Clear(hv)
		}
	})

	// Phase 3: NNN — mark NHE.N_v in the worker's vertex bitmap; every
	// set bit an NHE.N_u element hits names the closing w.
	pool.For(n, 0, func(worker, start, end int) {
		bm := vertexBitmap(sc.verts, worker, n)
		for v := start; v < end; v++ {
			nv := s.NHE.Neighbors(uint32(v))
			if len(nv) < 2 {
				continue
			}
			bm.Mark(nv)
			for _, u := range nv {
				for _, w := range s.NHE.Neighbors(u) {
					if bm.Has(w) {
						bump(uint32(v))
						bump(u)
						bump(w)
					}
				}
			}
			bm.Clear(nv)
		}
	})
	return counts
}
