package core

import (
	"math"
	"time"

	"lotustc/internal/intersect"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// Partitioner selects the load-balancing policy for the quadratic
// HHH/HHN phase (§4.6, Table 9).
type Partitioner int

const (
	// SquaredEdgeTiling splits a high-degree vertex's pair work at
	// boundaries i_k ≈ d·sqrt(k/p), equalizing work complexity.
	SquaredEdgeTiling Partitioner = iota
	// EdgeBalanced splits a high-degree vertex's neighbours into
	// equal-count ranges, the [67]/[79] policy the paper compares
	// against; tiles near the end of the list carry quadratically
	// more work.
	EdgeBalanced
)

// String names the partitioner.
func (p Partitioner) String() string {
	if p == SquaredEdgeTiling {
		return "squared-edge-tiling"
	}
	return "edge-balanced"
}

// CountOptions tune the counting phases.
type CountOptions struct {
	// Partitioner for phase 1 (default SquaredEdgeTiling).
	Partitioner Partitioner
	// TileThreshold: vertices with more than this many hub
	// neighbours are tiled (paper: 512).
	TileThreshold int
	// TilesPerVertex: number of partitions per tiled vertex
	// (paper: 2 × #threads). Zero picks 2 × pool workers. For the
	// EdgeBalanced policy the paper uses 256 × #threads partitions
	// across all edges; we apply the same per-vertex tile count for
	// a like-for-like comparison and report idle time.
	TilesPerVertex int
	// FuseHNNAndNNN runs the HNN and NNN loops fused in a single
	// traversal of NHE — the alternative §4.5 argues against;
	// exposed for the ablation benchmark.
	FuseHNNAndNNN bool
	// WorkStealing schedules the phase-1 tiles on per-worker
	// Chase-Lev deques with stealing (the paper's runtime model,
	// §5.1.3) instead of the shared-counter self-scheduler. Results
	// are identical; only the scheduling differs.
	WorkStealing bool
	// HNNBlocks > 0 enables the §7 future-work blocking for the HNN
	// phase: the non-hub ID range is split into that many blocks and
	// the NHE sub-graph is traversed once per block, intersecting
	// only with neighbours u inside the block. The random HE-row
	// accesses of each pass are then confined to one block's rows,
	// shrinking the randomly-accessed working set at the cost of
	// re-streaming NHE per block.
	HNNBlocks int
	// SkipNNN suppresses phase 3. CountRecursive replaces it with a
	// recursive LOTUS split of the non-hub sub-graph; the approx
	// package replaces it with sampling (§6.2).
	SkipNNN bool
	// Phase1Kernel selects the H2H probe strategy for phase 1:
	// per-row auto dispatch (default), always-scalar bit probes, or
	// always the word-parallel bitmap kernel. All three produce
	// bit-identical HHH/HHN counts.
	Phase1Kernel Phase1Kernel
	// Intersect selects the NNN intersection strategy: adaptive
	// merge-vs-galloping dispatch (default) or unconditional merge
	// join (the ablation baseline). HNN always uses the hub bitmap.
	Intersect IntersectKernel
	// Metrics, when non-nil, receives the per-phase observability
	// counters (phase timings, tile/probe/intersection counts,
	// scheduler claims and steals, cancellation polls — names in
	// DESIGN.md). Counts are accumulated worker-locally and published
	// in bulk at phase boundaries, so a nil Metrics costs nothing on
	// the hot path.
	Metrics *obs.Metrics
	// Scratch, when non-nil, supplies reusable per-worker kernel
	// scratch so a resident service's warm counts stop allocating
	// phase-1/HNN hub bitmaps per request. One CountScratch must never be
	// used by two concurrent counts; sequential reuse across graphs
	// and hub counts is fine (each bitmap spans the whole 16-bit hub
	// ID space).
	Scratch *CountScratch
}

// CountScratch holds reusable per-worker kernel scratch across
// sequential counts. The zero value is ready to use.
type CountScratch struct {
	hubs    *sched.WorkerLocal[intersect.HubBitmap]
	workers int
}

// NewCountScratch returns an empty scratch set; slabs materialize on
// first use and are reused while the worker count stays the same.
func NewCountScratch() *CountScratch { return &CountScratch{} }

// hubBitmaps returns the per-worker hub bitmaps phase 1 and HNN share.
// With a CountScratch the previous count's bitmaps are recycled when
// the worker count matches; both kernels clear what they mark before
// moving on, so recycled bitmaps are always all-zero.
func hubBitmaps(s *CountScratch, workers int) *sched.WorkerLocal[intersect.HubBitmap] {
	if s == nil {
		return newHubBitmaps(workers)
	}
	if s.hubs == nil || s.workers != workers {
		s.hubs, s.workers = newHubBitmaps(workers), workers
	}
	return s.hubs
}

// newHubBitmaps returns per-worker hub bitmaps, each allocated on its
// worker's first Get.
func newHubBitmaps(workers int) *sched.WorkerLocal[intersect.HubBitmap] {
	return sched.NewWorkerLocal(workers, func() *intersect.HubBitmap { return new(intersect.HubBitmap) })
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
// by intersecting 16-bit HE rows, and phase 3 counts NNN triangles by
// intersecting NHE rows with merge join.
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
	bms := hubBitmaps(opt.Scratch, pool.Workers())

	t0 := time.Now()
	res.Phase1Load = lg.countPhase1(pool, opt, bms, res)
	res.Phase1Time = time.Since(t0)
	m.AddDuration("phase1.ns", res.Phase1Time)
	m.Add("phase1.claims", res.Phase1Load.Claims)
	m.Add("phase1.steals", res.Phase1Load.Steals)
	if pool.Cancelled() {
		// The run is being torn down: skip the remaining phases; the
		// engine discards the partial result.
		return res
	}

	switch {
	case opt.SkipNNN:
		t1 := time.Now()
		res.HNNLoad = lg.countHNN(pool, res, opt, bms)
		res.HNNTime = time.Since(t1)
		m.Add("hnn.claims", res.HNNLoad.Claims)
	case opt.FuseHNNAndNNN:
		t1 := time.Now()
		res.HNNLoad = lg.countFused(pool, res, opt, bms)
		d := time.Since(t1)
		res.HNNTime, res.NNNTime = d/2, d/2
		res.NNNLoad = res.HNNLoad
		// One fused region: its claims are attributed to HNN only.
		m.Add("hnn.claims", res.HNNLoad.Claims)
	default:
		t1 := time.Now()
		if opt.HNNBlocks > 1 {
			res.HNNLoad = lg.countHNNBlocked(pool, res, opt, bms)
		} else {
			res.HNNLoad = lg.countHNN(pool, res, opt, bms)
		}
		res.HNNTime = time.Since(t1)
		m.Add("hnn.claims", res.HNNLoad.Claims)
		if pool.Cancelled() {
			return res
		}

		t2 := time.Now()
		res.NNNLoad = lg.countNNN(pool, res, opt)
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
// (HE degree > threshold) become TilesPerVertex pair tiles under the
// selected policy; the remaining vertices are grouped into ranges of
// roughly equal pair work.
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
				var lo, hi uint32
				switch opt.Partitioner {
				case SquaredEdgeTiling:
					lo = uint32(float64(d) * sqrtF[k])
					hi = uint32(float64(d) * sqrtF[k+1])
				case EdgeBalanced:
					lo = uint32(d * k / p)
					hi = uint32(d * (k + 1) / p)
				}
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
// core count of the host.
func (lg *LotusGraph) Phase1TileWork(opt CountOptions, workers int) []uint64 {
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

// phase1Stats carries one tile's worker-local observability counts.
type phase1Stats struct {
	pairs, rows, wordOps, wordRows, scalarRows uint64
}

// countPhase1 counts HHH and HHN triangles (Alg 3 lines 2-6): for
// every vertex, every pair (h1, h2) of its hub neighbours is probed
// in the H2H bit array. Random accesses touch only H2H (§4.5).
//
// Two kernels implement the probe. The scalar kernel tests each
// (h1, h2) pair as one IsSet bit probe — O(d²) dependent loads per
// vertex. The word kernel populates a per-worker bitmap with the
// vertex's hub neighbours once, then intersects each h1 row (read
// word-wise, masked to h2 < h1) against it with AND+popcount —
// O(d·h1/64) word ops. Both are bit-identical: HE rows are strictly
// ascending, so {nv[j] : j < i} is exactly {h ∈ nv : h < nv[i]}, the
// set the row mask keeps. Phase1Auto chooses per row.
func (lg *LotusGraph) countPhase1(pool *sched.Pool, opt CountOptions, bms *sched.WorkerLocal[intersect.HubBitmap], res *Result) sched.LoadReport {
	tiles := lg.phase1Tiles(opt, pool.Workers())
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

	kernel := opt.Phase1Kernel

	processPairs := func(bm *intersect.HubBitmap, v uint32, lo, hi uint32) (found uint64, st phase1Stats) {
		nv := lg.HE.Neighbors(v)
		// The bitmap is populated lazily, on the first row routed to
		// the word kernel, and holds ALL of nv: rows masked to
		// h2 < h1 then see exactly the prefix nv[:i].
		populated := false
		for i := int(lo); i < int(hi); i++ {
			// Pair tiles of extreme-degree vertices are the largest
			// indivisible units of phase 1, so cancellation is polled
			// per h1 row to keep the response bounded by one row scan.
			st.rows++
			if pool.Cancelled() {
				break
			}
			h1 := uint32(nv[i])
			// The h1(h1-1)/2 base is computed once per h1 and the
			// row is scanned for consecutive h2 (§4.4.1).
			row := lg.H2H.Row(h1)
			if kernel == Phase1Word || (kernel == Phase1Auto && wordRowThreshold(i, h1)) {
				if !populated {
					bm.Mark(nv)
					populated = true
				}
				found += row.AndCount(bm[:])
				st.wordOps += uint64(row.NumWords())
				st.wordRows++
			} else {
				for j := 0; j < i; j++ {
					if row.IsSet(uint32(nv[j])) {
						found++
					}
				}
				st.scalarRows++
			}
			st.pairs += uint64(i)
		}
		// Clear on every exit, including the cancellation break: the
		// worker's next vertex (and HNN) reuses the bitmap.
		if populated {
			bm.Clear(nv)
		}
		return found, st
	}

	runTasks := pool.RunTasks
	if opt.WorkStealing {
		runTasks = pool.Stealing().RunTasks
	}
	report := runTasks(len(tiles), func(worker, ti int) {
		t := tiles[ti]
		bm := bms.Get(worker)
		var localHHH, localHHN, localPolls uint64
		var localStats phase1Stats
		if t.vEnd > 0 { // vertex-range tile
			for v := t.vStart; v < t.vEnd; v++ {
				localPolls++
				if pool.Cancelled() {
					break
				}
				d := lg.HE.Degree(v)
				if d < 2 {
					continue
				}
				found, st := processPairs(bm, v, 1, uint32(d))
				localStats.pairs += st.pairs
				localStats.wordOps += st.wordOps
				localStats.wordRows += st.wordRows
				localStats.scalarRows += st.scalarRows
				localPolls += st.rows
				if v < lg.HubCount {
					localHHH += found
				} else {
					localHHN += found
				}
			}
		} else { // pair tile of a single high-degree vertex
			lo := t.lo
			if lo < 1 {
				lo = 1
			}
			found, st := processPairs(bm, t.vStart, lo, t.hi)
			localStats = st
			localPolls += st.rows
			if t.vStart < lg.HubCount {
				localHHH += found
			} else {
				localHHN += found
			}
		}
		hhh.Add(worker, localHHH)
		hhn.Add(worker, localHHN)
		probes.Add(worker, localStats.pairs)
		polls.Add(worker, localPolls)
		wordOps.Add(worker, localStats.wordOps)
		wordRows.Add(worker, localStats.wordRows)
		scalarRows.Add(worker, localStats.scalarRows)
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
// worker's hub bitmap, every HE.N_u is probed against it branch-free,
// and the marks are cleared before the next v. Cancellation is polled
// before the mark, so the bitmap is all-zero on every exit.
func (lg *LotusGraph) countHNN(pool *sched.Pool, res *Result, opt CountOptions, bms *sched.WorkerLocal[intersect.HubBitmap]) sched.LoadReport {
	var rep sched.LoadReport
	res.HNN, rep = lg.countHNNRange(pool, opt, bms, 0, uint32(lg.numVertices))
	return rep
}

// countHNNBlocked is countHNN with the §7 blocking strategy: the
// non-hub ID space is cut into opt.HNNBlocks contiguous ranges, and
// each range gets its own NHE traversal that probes only neighbours u
// inside the range, confining the random HE.N_u loads of a pass to
// that range's rows.
func (lg *LotusGraph) countHNNBlocked(pool *sched.Pool, res *Result, opt CountOptions, bms *sched.WorkerLocal[intersect.HubBitmap]) sched.LoadReport {
	blocks := opt.HNNBlocks
	hub := int(lg.HubCount)
	nonHubs := lg.numVertices - hub
	var total sched.LoadReport
	for b := 0; b < blocks && nonHubs > 0 && !pool.Cancelled(); b++ {
		lo := uint32(hub + b*nonHubs/blocks)
		hi := uint32(hub + (b+1)*nonHubs/blocks)
		found, rep := lg.countHNNRange(pool, opt, bms, lo, hi)
		res.HNN += found
		total.Wall += rep.Wall
		total.Claims += rep.Claims
		total.Steals += rep.Steals
		if total.Busy == nil {
			total.Busy = append([]time.Duration(nil), rep.Busy...)
		} else {
			for i := range rep.Busy {
				total.Busy[i] += rep.Busy[i]
			}
		}
	}
	opt.Metrics.Add("hnn.blocks", int64(blocks))
	return total
}

// countHNNRange runs one HNN pass that probes only neighbours u in
// [lo, hi), publishes its counters and returns its triangle total.
// NHE rows are sorted, so the qualifying neighbours of each v form a
// contiguous sub-list located by binary search; a full pass skips the
// search.
func (lg *LotusGraph) countHNNRange(pool *sched.Pool, opt CountOptions, bms *sched.WorkerLocal[intersect.HubBitmap], lo, hi uint32) (uint64, sched.LoadReport) {
	m := opt.Metrics
	n := lg.numVertices
	whole := lo == 0 && hi == uint32(n)
	acc := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	rep := pool.ForTimed(n, 0, func(worker, start, end int) {
		bm := bms.Get(worker)
		var local, localInter, localPolls uint64
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
			if !whole {
				// Branch-free search: a closure-based sort.Search
				// here costs two indirect calls per vertex per block.
				a := intersect.LowerBound(nhe, lo)
				nhe = nhe[a : a+intersect.LowerBound(nhe[a:], hi)]
			}
			if len(nhe) == 0 {
				continue
			}
			localInter += uint64(len(nhe))
			bm.Mark(hv)
			for _, u := range nhe {
				local += bm.Count(lg.HE.Neighbors(u))
			}
			bm.Clear(hv)
		}
		acc.Add(worker, local)
		inter.Add(worker, localInter)
		polls.Add(worker, localPolls)
	})
	m.Add("hnn.he_intersections", int64(inter.Sum()))
	m.Add("hnn.polls", int64(polls.Sum()))
	m.Add(obs.HNNDispatchBitmap, int64(inter.Sum()))
	return acc.Sum(), rep
}

// countNNN counts NNN triangles (Alg 3 lines 10-12): the Forward
// algorithm restricted to the NHE sub-graph, with merge join
// (§4.4.3). Hub edges are never touched — the §3.3 pruning.
func (lg *LotusGraph) countNNN(pool *sched.Pool, res *Result, opt CountOptions) sched.LoadReport {
	m := opt.Metrics
	adaptive := opt.Intersect == IntersectAdaptive
	n := lg.numVertices
	acc := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	gallops := sched.NewAccumulator(pool.Workers())
	rep := pool.ForTimed(n, 0, func(worker, start, end int) {
		var local, localInter, localPolls, localGallops uint64
		for v := start; v < end; v++ {
			localPolls++
			if pool.Cancelled() {
				break
			}
			nv := lg.NHE.Neighbors(uint32(v))
			if len(nv) < 1 {
				continue
			}
			localInter += uint64(len(nv))
			for _, u := range nv {
				nu := lg.NHE.Neighbors(u)
				if adaptive && intersect.UseGalloping(len(nv), len(nu)) {
					local += intersect.Galloping(nv, nu)
					localGallops++
				} else {
					local += intersect.Merge(nv, nu)
				}
			}
		}
		acc.Add(worker, local)
		inter.Add(worker, localInter)
		polls.Add(worker, localPolls)
		gallops.Add(worker, localGallops)
	})
	res.NNN = acc.Sum()
	m.Add("nnn.nhe_intersections", int64(inter.Sum()))
	m.Add("nnn.polls", int64(polls.Sum()))
	m.Add(obs.NNNDispatchGallop, int64(gallops.Sum()))
	m.Add(obs.NNNDispatchMerge, int64(inter.Sum()-gallops.Sum()))
	return rep
}

// countFused runs the HNN and NNN intersections inside one traversal
// of NHE — the loop fusion §4.5 rejects because it enlarges the
// working set of randomly accessed data. Kept for the ablation bench.
func (lg *LotusGraph) countFused(pool *sched.Pool, res *Result, opt CountOptions, bms *sched.WorkerLocal[intersect.HubBitmap]) sched.LoadReport {
	m := opt.Metrics
	adaptive := opt.Intersect == IntersectAdaptive
	n := lg.numVertices
	hnn := sched.NewAccumulator(pool.Workers())
	nnn := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	nnnGallops := sched.NewAccumulator(pool.Workers())
	hnnInter := sched.NewAccumulator(pool.Workers())
	rep := pool.ForTimed(n, 0, func(worker, start, end int) {
		bm := bms.Get(worker)
		var localHNN, localNNN, localInter, localPolls uint64
		var localNNNGallops, localHNNInter uint64
		for v := start; v < end; v++ {
			localPolls++
			if pool.Cancelled() {
				break
			}
			nv := lg.NHE.Neighbors(uint32(v))
			if len(nv) == 0 {
				continue
			}
			hv := lg.HE.Neighbors(uint32(v))
			hasHubs := len(hv) > 0
			bm.Mark(hv)
			localInter += uint64(len(nv))
			for _, u := range nv {
				if hasHubs {
					localHNN += bm.Count(lg.HE.Neighbors(u))
					localHNNInter++
				}
				nu := lg.NHE.Neighbors(u)
				if adaptive && intersect.UseGalloping(len(nv), len(nu)) {
					localNNN += intersect.Galloping(nv, nu)
					localNNNGallops++
				} else {
					localNNN += intersect.Merge(nv, nu)
				}
			}
			bm.Clear(hv)
		}
		hnn.Add(worker, localHNN)
		nnn.Add(worker, localNNN)
		inter.Add(worker, localInter)
		polls.Add(worker, localPolls)
		nnnGallops.Add(worker, localNNNGallops)
		hnnInter.Add(worker, localHNNInter)
	})
	res.HNN = hnn.Sum()
	res.NNN = nnn.Sum()
	m.Add("hnn.he_intersections", int64(inter.Sum()))
	m.Add("nnn.nhe_intersections", int64(inter.Sum()))
	m.Add("hnn.polls", int64(polls.Sum()))
	m.Add(obs.HNNDispatchBitmap, int64(hnnInter.Sum()))
	m.Add(obs.NNNDispatchGallop, int64(nnnGallops.Sum()))
	m.Add(obs.NNNDispatchMerge, int64(inter.Sum()-nnnGallops.Sum()))
	return rep
}
