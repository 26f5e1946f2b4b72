package shard

import (
	"sync/atomic"
	"time"

	"lotustc/internal/core"
	"lotustc/internal/intersect"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// CountOptions tune a sharded count.
type CountOptions struct {
	// Phase1Kernel selects the H2H probe strategy for the hub-pair
	// part, which runs the monolithic phase-1 kernel
	// (core.CountHubPairs) on the apex's R_i and R_j hub lists.
	Phase1Kernel core.Phase1Kernel
	// Intersect selects the NNN intersection strategy (the monolithic
	// kernel, core.IntersectKernel.CountRows); the HNN part always
	// probes the hub bitmap.
	Intersect core.IntersectKernel
	// Metrics, when non-nil, receives the counting counters
	// (shard.triples, shard.tiles, shard.polls, shard.count.ns,
	// hnn.dispatch.bitmap, and nnn.dispatch.bitmap or
	// nnn.dispatch.merge).
	Metrics *obs.Metrics
	// TrackTriples records the per-block-triple triangle totals into
	// Result.PerTriple — the instrumentation the "every triangle is
	// counted by exactly one triple" property test keys on. Off by
	// default; tracking costs one atomic add per tile.
	TrackTriples bool
}

// TripleCount is one block triple's triangle total.
type TripleCount struct {
	I, J, K int
	Total   uint64
}

// Result carries the totals, the per-class breakdown, the wall time
// and the load report of one sharded count.
type Result struct {
	Total              uint64
	HHH, HHN, HNN, NNN uint64
	// CountTime is the wall time of the counting sweep (the grid's
	// build time lives on Grid.PreprocessTime).
	CountTime time.Duration
	// Load is the tile scheduler's report.
	Load sched.LoadReport
	// Triples is the number of block triples enumerated with live
	// work; Tiles the number of scheduled apex sub-range tasks.
	Triples, Tiles int
	// PerTriple holds every live triple's total when
	// CountOptions.TrackTriples was set, in enumeration order.
	PerTriple []TripleCount
}

// triple is one block triple (i <= j <= k): apexes x stream from
// block k, their neighbours y from block j and z from block i, with
// z < y < x guaranteed by the ascending block ranges.
type triple struct {
	i, j, k int
	// The per-part work masks, precomputed from the ranges' hub /
	// non-hub overlap so dead parts cost nothing per apex.
	p1, hnn, nnn bool
}

// ctile is one scheduled task: the apex sub-range [lo, hi) of one
// triple.
type ctile struct {
	t      int
	lo, hi uint32
}

// Count runs the sharded triangle count: every block triple
// (i <= j <= k) is enumerated, split into apex sub-range tiles, and
// scheduled over the pool. For a triple, apexes x stream from shard
// k's rows; the hub-pair part probes shard j's H2H rows against the
// apex's R_i hub neighbours (HHH when the apex is a hub, HHN
// otherwise), the HNN part marks the apex's R_i-restricted HE row in a
// hub bitmap and probes shard j's HE rows against it, and the NNN part
// does the same over NHE rows with a vertex bitmap. Each
// triangle z < y < x is counted exactly once: by the unique triple
// (block(z), block(j), block(k)) at the same apex and with the same
// hubness pattern as the monolithic count, which is why the per-class
// totals match bit for bit.
func (gr *Grid) Count(pool *sched.Pool, opt CountOptions) *Result {
	if pool == nil {
		pool = sched.NewPool(0)
	}
	t0 := time.Now()
	res := &Result{}
	h := gr.HubCount

	// Enumerate the live triples. A part is live only when every
	// range it draws from has the needed hub/non-hub population:
	// hub-pair needs hubs in R_i and R_j; HNN needs hubs in R_i and
	// non-hubs in R_j and R_k; NNN needs non-hubs in all three.
	hubs := func(b int) bool { return gr.Ranges[b].Lo < h }
	nonHubs := func(b int) bool { return gr.Ranges[b].Hi > h }
	var triples []triple
	for k := 0; k < gr.P; k++ {
		if gr.Ranges[k].Len() == 0 {
			continue
		}
		for j := 0; j <= k; j++ {
			if gr.Ranges[j].Len() == 0 {
				continue
			}
			for i := 0; i <= j; i++ {
				if gr.Ranges[i].Len() == 0 {
					continue
				}
				t := triple{
					i: i, j: j, k: k,
					p1:  hubs(i) && hubs(j),
					hnn: hubs(i) && nonHubs(j) && nonHubs(k),
					nnn: nonHubs(i) && nonHubs(j) && nonHubs(k),
				}
				if t.p1 || t.hnn || t.nnn {
					triples = append(triples, t)
				}
			}
		}
	}
	res.Triples = len(triples)
	if len(triples) == 0 {
		res.CountTime = time.Since(t0)
		return res
	}

	// Split each triple's apex range into sub-range tiles so one huge
	// block cannot serialize the sweep; small grids (p=1 has a single
	// triple) rely on this for parallelism at all.
	chunks := 4 * pool.Workers() / len(triples)
	if chunks < 1 {
		chunks = 1
	}
	var tiles []ctile
	for ti, tr := range triples {
		r := gr.Ranges[tr.k]
		span := uint32(r.Len())
		c := uint32(chunks)
		if c > span {
			c = span
		}
		for q := uint32(0); q < c; q++ {
			lo := r.Lo + span*q/c
			hi := r.Lo + span*(q+1)/c
			if hi > lo {
				tiles = append(tiles, ctile{t: ti, lo: lo, hi: hi})
			}
		}
	}
	res.Tiles = len(tiles)

	var tripleTotals []uint64
	if opt.TrackTriples {
		tripleTotals = make([]uint64, len(triples))
	}

	workers := pool.Workers()
	hhh := sched.NewAccumulator(workers)
	hhn := sched.NewAccumulator(workers)
	hnn := sched.NewAccumulator(workers)
	nnn := sched.NewAccumulator(workers)
	polls := sched.NewAccumulator(workers)
	hnnRows := sched.NewAccumulator(workers)
	nnnRows := sched.NewAccumulator(workers)
	// Per-worker hub bitmaps, shared by the word-parallel hub-pair
	// kernel and the HNN part, and per-worker vertex bitmaps over the
	// global ID space for the NNN part; every part clears what it
	// marks before the next apex.
	bms := sched.NewWorkerLocal(workers, func() *intersect.HubBitmap { return new(intersect.HubBitmap) })
	n := gr.numVertices
	vbs := sched.NewWorkerLocal(workers, func() *intersect.VertexBitmap {
		bm := intersect.NewVertexBitmap(n)
		return &bm
	})

	res.Load = pool.RunTasks(len(tiles), func(worker, ti int) {
		tl := tiles[ti]
		tr := triples[tl.t]
		ri, rj := gr.Ranges[tr.i], gr.Ranges[tr.j]
		sk, sj := gr.Shards[tr.k], gr.Shards[tr.j]
		bm := bms.Get(worker)
		var vbm intersect.VertexBitmap
		if tr.nnn {
			vbm = *vbs.Get(worker)
		}
		var cHHH, cHHN, cHNN, cNNN, cHNNRows, cNNNRows, cPolls uint64
		for x := tl.lo; x < tl.hi; x++ {
			cPolls++
			if pool.Cancelled() {
				break
			}
			var hv []uint16
			if tr.p1 || (tr.hnn && x >= h) {
				hv = sk.HENeighbors(x)
			}
			if tr.p1 && len(hv) >= 2 {
				hvJ := restrict16(hv, rj.Lo, rj.Hi)
				hvI := restrict16(hv, ri.Lo, ri.Hi)
				if len(hvJ) > 0 && len(hvI) > 0 {
					found, _ := core.CountHubPairs(opt.Phase1Kernel, pool, sj.H2H, bm, hvI, hvJ, 0, len(hvJ))
					if x < h {
						cHHH += found
					} else {
						cHHN += found
					}
				}
			}
			if x < h {
				// Hubs have empty NHE rows; the HNN and NNN parts
				// only ever see non-hub apexes.
				continue
			}
			if tr.hnn {
				// The bitmap holds only the apex's R_i hubs, so probing
				// u's full HE row counts exactly the hubs in R_i.
				hvI := restrict16(hv, ri.Lo, ri.Hi)
				if len(hvI) > 0 {
					bm.Mark(hvI)
					for _, u := range restrict32(sk.NHENeighbors(x), rj.Lo, rj.Hi) {
						cHNN += bm.Count(sj.HENeighbors(u))
						cHNNRows++
					}
					bm.Clear(hvI)
				}
			}
			if tr.nnn {
				// As for HNN: the bitmap holds only the apex's R_i
				// neighbours, so probing u's full NHE row counts
				// exactly the closing w in R_i.
				nv := sk.NHENeighbors(x)
				nvI := restrict32(nv, ri.Lo, ri.Hi)
				if len(nvI) > 0 {
					us := restrict32(nv, rj.Lo, rj.Hi)
					cNNN += opt.Intersect.CountRows(vbm, nvI, us, sj.NHE, sj.Range.Lo)
					cNNNRows += uint64(len(us))
				}
			}
		}
		hhh.Add(worker, cHHH)
		hhn.Add(worker, cHHN)
		hnn.Add(worker, cHNN)
		nnn.Add(worker, cNNN)
		hnnRows.Add(worker, cHNNRows)
		nnnRows.Add(worker, cNNNRows)
		polls.Add(worker, cPolls)
		if tripleTotals != nil {
			atomic.AddUint64(&tripleTotals[tl.t], cHHH+cHHN+cHNN+cNNN)
		}
	})

	res.HHH, res.HHN = hhh.Sum(), hhn.Sum()
	res.HNN, res.NNN = hnn.Sum(), nnn.Sum()
	res.Total = res.HHH + res.HHN + res.HNN + res.NNN
	res.CountTime = time.Since(t0)
	if tripleTotals != nil {
		res.PerTriple = make([]TripleCount, len(triples))
		for ti, tr := range triples {
			res.PerTriple[ti] = TripleCount{I: tr.i, J: tr.j, K: tr.k, Total: tripleTotals[ti]}
		}
	}
	if m := opt.Metrics; m != nil {
		m.Add(obs.ShardTriples, int64(res.Triples))
		m.Add(obs.ShardTiles, int64(res.Tiles))
		m.Add(obs.ShardPolls, int64(polls.Sum()))
		m.Add(obs.HNNDispatchBitmap, int64(hnnRows.Sum()))
		m.Add(opt.Intersect.DispatchCounter(), int64(nnnRows.Sum()))
		m.AddDuration(obs.ShardCountNS, res.CountTime)
	}
	return res
}
