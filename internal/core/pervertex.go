package core

import (
	"sync/atomic"

	"lotustc/internal/sched"
)

// CountPerVertex counts, for every (relabeled) vertex, the number of
// triangles it participates in, using the three LOTUS phases. The
// per-vertex totals sum to 3x the triangle count. Use Relabeling /
// reorder.Inverse to map the counts back to original vertex IDs.
//
// Unlike the scalar Count, triangle corners here are scattered across
// vertices owned by other workers, so increments use atomics; the
// phase structure (and its locality) is unchanged.
func (lg *LotusGraph) CountPerVertex(pool *sched.Pool) []uint64 {
	if pool == nil {
		pool = sched.NewPool(0)
	}
	n := lg.numVertices
	counts := make([]uint64, n)
	bump := func(v uint32) { atomic.AddUint64(&counts[v], 1) }

	// Phase 1: HHH + HHN.
	pool.For(n, 0, func(_, start, end int) {
		for v := start; v < end; v++ {
			nv := lg.HE.Neighbors(uint32(v))
			for i := 1; i < len(nv); i++ {
				h1 := uint32(nv[i])
				row := lg.H2H.Row(h1)
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
	bms := hubBitmaps(nil, pool.Workers())
	pool.For(n, 0, func(worker, start, end int) {
		bm := bms.Get(worker)
		for v := start; v < end; v++ {
			hv := lg.HE.Neighbors(uint32(v))
			if len(hv) == 0 {
				continue
			}
			bm.Mark(hv)
			for _, u := range lg.NHE.Neighbors(uint32(v)) {
				for _, h := range lg.HE.Neighbors(u) {
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

	// Phase 3: NNN.
	pool.For(n, 0, func(_, start, end int) {
		for v := start; v < end; v++ {
			nv := lg.NHE.Neighbors(uint32(v))
			for _, u := range nv {
				nu := lg.NHE.Neighbors(u)
				i, j := 0, 0
				for i < len(nv) && j < len(nu) {
					switch {
					case nv[i] < nu[j]:
						i++
					case nv[i] > nu[j]:
						j++
					default:
						bump(uint32(v))
						bump(u)
						bump(nv[i])
						i++
						j++
					}
				}
			}
		}
	})
	return counts
}
