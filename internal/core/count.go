package core

import (
	"math"
	"time"

	"lotustc/internal/intersect"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// CountOptions tune the counting phases.
type CountOptions struct {
	// TileThreshold: vertices with more than this many hub
	// neighbours are split into squared-edge pair tiles (§4.6; paper:
	// 512).
	TileThreshold int
	// TilesPerVertex: number of pair tiles per tiled vertex (paper:
	// 2 × #threads). Zero picks 2 × pool workers.
	TilesPerVertex int
	// SkipNNN suppresses phase 3; the approx package's hybrid
	// replaces it with sampling of the non-hub sub-graph (§6.2).
	SkipNNN bool
	// Phase1Kernel selects the H2H probe strategy for phase 1:
	// per-row auto dispatch (default), always-scalar bit probes, or
	// always the word-parallel bitmap kernel. All three produce
	// bit-identical HHH/HHN counts.
	Phase1Kernel Phase1Kernel
	// Intersect selects the NNN intersection strategy: the per-worker
	// vertex bitmap (default) or merge join (the ablation baseline).
	// HNN always uses the hub bitmap.
	Intersect IntersectKernel
	// Metrics, when non-nil, receives the per-phase observability
	// counters (phase timings, tile/probe/intersection counts,
	// scheduler claims, cancellation polls — names in DESIGN.md).
	// Counts are accumulated worker-locally and published in bulk at
	// phase boundaries, so a nil Metrics costs nothing on the hot
	// path.
	Metrics *obs.Metrics
	// Scratch, when non-nil, supplies reusable kernel scratch so a
	// resident service's warm counts stop allocating phase-1/HNN hub
	// bitmaps, HNN's dense-row slab and NNN vertex bitmaps per
	// request. One CountScratch must never be used by two concurrent
	// counts; sequential reuse across graphs and hub counts is fine
	// (each hub bitmap spans the whole 16-bit hub ID space, and the
	// dense-row slab and vertex bitmaps grow to the largest graph
	// seen).
	Scratch *CountScratch
}

// CountScratch holds reusable per-worker kernel scratch across
// sequential counts. The zero value is ready to use.
type CountScratch struct {
	hubs    *sched.WorkerLocal[intersect.HubBitmap]
	verts   *sched.WorkerLocal[intersect.VertexBitmap]
	dense   denseRows
	workers int
}

// NewCountScratch returns an empty scratch set; slabs materialize on
// first use and are reused while the worker count stays the same.
func NewCountScratch() *CountScratch { return &CountScratch{} }

// forWorkers returns per-worker bitmaps for one count: the hub bitmaps
// phase 1 and HNN share, and the vertex bitmaps of NNN, each allocated
// on its worker's first Get. A nil s gets fresh slabs. Otherwise the
// previous count's slabs are recycled when the worker count matches;
// every kernel clears what it marks before moving on, so recycled
// bitmaps are always all-zero. The dense-row index HNN rebuilds per
// count is kept whatever the worker count.
func (s *CountScratch) forWorkers(workers int) *CountScratch {
	if s == nil {
		s = &CountScratch{}
	}
	if s.hubs == nil || s.workers != workers {
		s.hubs = sched.NewWorkerLocal(workers, func() *intersect.HubBitmap { return new(intersect.HubBitmap) })
		s.verts = sched.NewWorkerLocal(workers, func() *intersect.VertexBitmap { return new(intersect.VertexBitmap) })
		s.workers = workers
	}
	return s
}

// vertexBitmap returns worker's NNN vertex bitmap, grown to cover IDs
// [0, n). It only ever grows, so a resident service's scratch settles
// at ⌈|V|/64⌉ words of its largest graph; a larger all-zero bitmap
// serves a smaller graph unchanged.
func vertexBitmap(l *sched.WorkerLocal[intersect.VertexBitmap], worker, n int) intersect.VertexBitmap {
	bm := l.Get(worker)
	if len(*bm) < (n+63)/64 {
		*bm = intersect.NewVertexBitmap(n)
	}
	return *bm
}

// DefaultTileThreshold is the paper's tiling cutoff (§5.8).
const DefaultTileThreshold = 512

// Result carries the totals, the per-class breakdown (Fig 7) and the
// per-phase timing (Fig 6) and load reports (Table 9) of one count.
type Result struct {
	Total uint64
	// Triangle classes (§4.1).
	HHH, HHN, HNN, NNN uint64
	// Phase wall times (preprocessing time lives on the LotusGraph).
	Phase1Time, HNNTime, NNNTime time.Duration
	// Load reports for the three phases.
	Phase1Load, HNNLoad, NNNLoad sched.LoadReport
}

// HubTriangles returns the triangles containing at least one hub.
func (r *Result) HubTriangles() uint64 { return r.HHH + r.HHN + r.HNN }

// Count runs Algorithm 3 with default options.
func (lg *LotusGraph) Count(pool *sched.Pool) *Result {
	return lg.CountWithOptions(pool, CountOptions{})
}

// CountWithOptions runs Algorithm 3: phase 1 counts HHH and HHN
// triangles against the H2H bit array, phase 2 counts HNN triangles
// by intersecting 16-bit HE rows, and phase 3 (unless SkipNNN) counts
// NNN triangles by intersecting NHE rows against a per-worker vertex
// bitmap.
func (lg *LotusGraph) CountWithOptions(pool *sched.Pool, opt CountOptions) *Result {
	if pool == nil {
		pool = sched.NewPool(0)
	}
	if opt.TileThreshold <= 0 {
		opt.TileThreshold = DefaultTileThreshold
	}
	if opt.TilesPerVertex <= 0 {
		opt.TilesPerVertex = 2 * pool.Workers()
	}
	res := &Result{}
	m := opt.Metrics
	sc := opt.Scratch.forWorkers(pool.Workers())

	t0 := time.Now()
	res.Phase1Load = lg.countPhase1(pool, opt, sc.hubs, res)
	res.Phase1Time = time.Since(t0)
	m.AddDuration("phase1.ns", res.Phase1Time)
	m.Add("phase1.claims", res.Phase1Load.Claims)
	if pool.Cancelled() {
		// The run is being torn down: skip the remaining phases; the
		// engine discards the partial result.
		return res
	}

	// HNN starts by indexing the dense HE rows it probes word-wise;
	// the index build counts toward hnn.ns.
	t1 := time.Now()
	sc.dense.build(pool, lg)
	m.Add(obs.HNNDenseRows, int64(sc.dense.count))
	res.HNN, res.HNNLoad = lg.countHNN(pool, opt, sc)
	res.HNNTime = time.Since(t1)
	m.Add("hnn.claims", res.HNNLoad.Claims)
	if !opt.SkipNNN {
		if pool.Cancelled() {
			return res
		}
		t2 := time.Now()
		res.NNNLoad = lg.countNNN(pool, res, opt, sc.verts)
		res.NNNTime = time.Since(t2)
		m.Add("nnn.claims", res.NNNLoad.Claims)
	}
	m.AddDuration("hnn.ns", res.HNNTime)
	m.AddDuration("nnn.ns", res.NNNTime)

	res.Total = res.HHH + res.HHN + res.HNN + res.NNN
	return res
}

// tile is one unit of phase-1 work: either a contiguous vertex range
// [vStart, vEnd) processed whole, or (when vEnd == 0 and hi > 0) the
// pair sub-range [lo, hi) of vertex vStart's hub-neighbour indices.
type tile struct {
	vStart, vEnd uint32
	lo, hi       uint32
}

// phase1Tiles builds the phase-1 task list. High-degree vertices
// (HE degree > threshold) become TilesPerVertex squared-edge pair
// tiles with boundaries i_k ≈ d·sqrt(k/p), equalizing pair work
// (§4.6); the remaining vertices are grouped into ranges of roughly
// equal pair work.
func (lg *LotusGraph) phase1Tiles(opt CountOptions, workers int) []tile {
	n := lg.numVertices
	var tiles []tile
	// Sqrt(k/p) boundaries are shared across vertices (§4.6: values
	// of sqrt(f) are pre-calculated and reused).
	p := opt.TilesPerVertex
	sqrtF := make([]float64, p+1)
	for k := 0; k <= p; k++ {
		sqrtF[k] = math.Sqrt(float64(k) / float64(p))
	}

	var totalSmallWork uint64
	for v := 0; v < n; v++ {
		d := lg.HE.Degree(uint32(v))
		if d <= opt.TileThreshold {
			totalSmallWork += uint64(d) * uint64(d-1) / 2
		}
	}
	budget := totalSmallWork/uint64(workers*16) + 1

	var rangeStart int
	var rangeWork uint64
	flush := func(endExclusive int) {
		if rangeStart < endExclusive {
			tiles = append(tiles, tile{vStart: uint32(rangeStart), vEnd: uint32(endExclusive)})
		}
		rangeStart = endExclusive
		rangeWork = 0
	}
	for v := 0; v < n; v++ {
		d := lg.HE.Degree(uint32(v))
		if d > opt.TileThreshold {
			flush(v)
			rangeStart = v + 1
			for k := 0; k < p; k++ {
				lo := uint32(float64(d) * sqrtF[k])
				hi := uint32(float64(d) * sqrtF[k+1])
				if k == p-1 {
					hi = uint32(d)
				}
				if hi > lo {
					tiles = append(tiles, tile{vStart: uint32(v), lo: lo, hi: hi})
				}
			}
			continue
		}
		rangeWork += uint64(d) * uint64(d-1) / 2
		if rangeWork >= budget {
			flush(v + 1)
		}
	}
	flush(n)
	return tiles
}

// Phase1TileWork returns the pair-work (number of H2H probes) of
// every phase-1 tile the given options would produce. The Table 9
// experiment feeds this into a list-scheduling simulation to compute
// idle time at arbitrary thread counts, independent of the physical
// core count of the host. A worker count below 1 is taken as 1.
func (lg *LotusGraph) Phase1TileWork(opt CountOptions, workers int) []uint64 {
	workers = max(workers, 1)
	if opt.TileThreshold <= 0 {
		opt.TileThreshold = DefaultTileThreshold
	}
	if opt.TilesPerVertex <= 0 {
		opt.TilesPerVertex = 2 * workers
	}
	tiles := lg.phase1Tiles(opt, workers)
	work := make([]uint64, len(tiles))
	for i, t := range tiles {
		if t.vEnd > 0 {
			var sum uint64
			for v := t.vStart; v < t.vEnd; v++ {
				d := uint64(lg.HE.Degree(v))
				sum += d * (d - 1) / 2
			}
			work[i] = sum
		} else {
			lo, hi := uint64(t.lo), uint64(t.hi)
			// Pair work of h1 index i is i; sum over [lo, hi).
			work[i] = (hi*(hi-1) - lo*(lo-1)) / 2
		}
	}
	return work
}

// countPhase1 counts HHH and HHN triangles (Alg 3 lines 2-6): for
// every vertex, every pair (h1, h2) of its hub neighbours is probed
// in the H2H bit array by CountHubPairs. Random accesses touch only
// H2H (§4.5).
func (lg *LotusGraph) countPhase1(pool *sched.Pool, opt CountOptions, bms *sched.WorkerLocal[intersect.HubBitmap], res *Result) sched.LoadReport {
	tiles := lg.phase1Tiles(opt, pool.Workers())
	rows := lg.H2H.Rows()
	hhh := sched.NewAccumulator(pool.Workers())
	hhn := sched.NewAccumulator(pool.Workers())
	// Observability counters, accumulated worker-locally like the
	// triangle counts: H2H probes (pair tests), cancellation polls,
	// and the word-kernel op/row-routing counts.
	probes := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	wordOps := sched.NewAccumulator(pool.Workers())
	wordRows := sched.NewAccumulator(pool.Workers())
	scalarRows := sched.NewAccumulator(pool.Workers())

	report := pool.RunTasks(len(tiles), func(worker, ti int) {
		t := tiles[ti]
		bm := bms.Get(worker)
		var localHHH, localHHN, localPolls uint64
		var localStats Phase1Stats
		// count probes the pairs of v's hub-neighbour indices [lo, hi).
		count := func(v uint32, lo, hi int) {
			nv := lg.HE.Neighbors(v)
			found, st := CountHubPairs(opt.Phase1Kernel, pool, rows, bm, nv, nv, lo, hi)
			localStats.Pairs += st.Pairs
			localStats.WordOps += st.WordOps
			localStats.WordRows += st.WordRows
			localStats.ScalarRows += st.ScalarRows
			localPolls += st.Rows
			if v < lg.HubCount {
				localHHH += found
			} else {
				localHHN += found
			}
		}
		if t.vEnd > 0 { // vertex-range tile
			for v := t.vStart; v < t.vEnd; v++ {
				localPolls++
				if pool.Cancelled() {
					break
				}
				if d := lg.HE.Degree(v); d >= 2 {
					count(v, 1, d)
				}
			}
		} else { // pair tile of a single high-degree vertex
			count(t.vStart, max(int(t.lo), 1), int(t.hi))
		}
		hhh.Add(worker, localHHH)
		hhn.Add(worker, localHHN)
		probes.Add(worker, localStats.Pairs)
		polls.Add(worker, localPolls)
		wordOps.Add(worker, localStats.WordOps)
		wordRows.Add(worker, localStats.WordRows)
		scalarRows.Add(worker, localStats.ScalarRows)
	})
	res.HHH = hhh.Sum()
	res.HHN = hhn.Sum()
	opt.Metrics.Add("phase1.tiles", int64(len(tiles)))
	opt.Metrics.Add("phase1.h2h_probes", int64(probes.Sum()))
	opt.Metrics.Add("phase1.polls", int64(polls.Sum()))
	opt.Metrics.Add(obs.Phase1WordOps, int64(wordOps.Sum()))
	opt.Metrics.Add(obs.Phase1RowsWord, int64(wordRows.Sum()))
	opt.Metrics.Add(obs.Phase1RowsScalar, int64(scalarRows.Sum()))
	return report
}

// countHNN counts HNN triangles (Alg 3 lines 7-9): for every non-hub
// v and non-hub neighbour u, the common hub neighbours |HE.N_v ∩
// HE.N_u| each close a triangle. Random accesses touch only HE rows,
// 2 bytes per edge (§4.5, Table 2). HE.N_v is marked once in the
// worker's hub bitmap, every HE.N_u is probed against it (probeHE),
// and the marks are cleared before the next v. Cancellation is polled
// before the mark, so the bitmap is all-zero on every exit. It
// publishes its counters and returns its triangle total.
func (lg *LotusGraph) countHNN(pool *sched.Pool, opt CountOptions, sc *CountScratch) (uint64, sched.LoadReport) {
	m := opt.Metrics
	n := lg.numVertices
	acc := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	wordRows := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	rep := pool.ForTimed(n, 0, func(worker, start, end int) {
		bm := sc.hubs.Get(worker)
		var local, localInter, localWords, localPolls uint64
		for v := start; v < end; v++ {
			localPolls++
			if pool.Cancelled() {
				break
			}
			hv := lg.HE.Neighbors(uint32(v))
			if len(hv) == 0 {
				continue
			}
			nhe := lg.NHE.Neighbors(uint32(v))
			if len(nhe) == 0 {
				continue
			}
			localInter += uint64(len(nhe))
			bm.Mark(hv)
			found, words := lg.probeHE(bm, &sc.dense, nhe)
			bm.Clear(hv)
			local += found
			localWords += words
		}
		acc.Add(worker, local)
		inter.Add(worker, localInter)
		wordRows.Add(worker, localWords)
		polls.Add(worker, localPolls)
	})
	m.Add("hnn.he_intersections", int64(inter.Sum()))
	m.Add("hnn.polls", int64(polls.Sum()))
	m.Add(obs.HNNDispatchBitmap, int64(inter.Sum()))
	m.Add(obs.HNNDispatchWords, int64(wordRows.Sum()))
	return acc.Sum(), rep
}

// probeHE counts, over every u in nhe, the hubs of HE.N_u marked in
// bm. A dense HE.N_u is probed as Σ popcount(bm[j] & row_u[j]) over
// its dense-index bitset; every other row element by element,
// branch-free. words counts the rows probed word-wise.
func (lg *LotusGraph) probeHE(bm *intersect.HubBitmap, dense *denseRows, nhe []uint32) (found, words uint64) {
	for _, u := range nhe {
		if row := dense.row(u); row != nil {
			found += bm.CountWords(row)
			words++
		} else {
			found += bm.Count(lg.HE.Neighbors(u))
		}
	}
	return found, words
}

// countNNN counts NNN triangles (Alg 3 lines 10-12): the Forward
// algorithm restricted to the NHE sub-graph. Hub edges are never
// touched — the §3.3 pruning. Each row NHE.N_v is marked once in the
// worker's vertex bitmap and every NHE.N_u, u ∈ NHE.N_v, is probed
// against it (opt.Intersect; merge join under the ablation baseline).
// Rows with fewer than two entries close no triangle and are skipped.
// Cancellation is polled before the mark, so the bitmap is all-zero
// on every exit.
func (lg *LotusGraph) countNNN(pool *sched.Pool, res *Result, opt CountOptions, vbs *sched.WorkerLocal[intersect.VertexBitmap]) sched.LoadReport {
	m := opt.Metrics
	n := lg.numVertices
	k := opt.Intersect
	acc := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	rep := pool.ForTimed(n, 0, func(worker, start, end int) {
		bm := vertexBitmap(vbs, worker, n)
		var local, localInter, localPolls uint64
		for v := start; v < end; v++ {
			localPolls++
			if pool.Cancelled() {
				break
			}
			nv := lg.NHE.Neighbors(uint32(v))
			if len(nv) < 2 {
				continue
			}
			localInter += uint64(len(nv))
			local += k.CountRows(bm, nv, nv, lg.NHE, 0)
		}
		acc.Add(worker, local)
		inter.Add(worker, localInter)
		polls.Add(worker, localPolls)
	})
	res.NNN = acc.Sum()
	m.Add("nnn.nhe_intersections", int64(inter.Sum()))
	m.Add("nnn.polls", int64(polls.Sum()))
	m.Add(k.DispatchCounter(), int64(inter.Sum()))
	return rep
}
