package core

import (
	"math"
	"slices"
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

// CountWithOptions runs Algorithm 3 over the structure: it lists
// every live block triple (i <= j <= k) and runs the three phases
// over them (countBlocks); at P = 1 the one triple (0, 0, 0) is the
// flat count. For a triple, apexes x stream from shard k's rows;
// phase 1 probes shard j's H2H rows with the apex's hub pairs (h1 in
// R_j, h2 in R_i), HNN probes shard j's HE rows against the apex's
// R_i hubs, and NNN shard j's NHE rows against its R_i non-hub
// neighbours. Each triangle z < y < x is counted exactly once: by the
// unique triple (block(z), block(y), block(x)), at the same apex and
// with the same hubness pattern at every P, which is why the
// per-class totals match bit for bit. opt.Metrics also receives
// shard.triples, the live triples.
func (lg *LotusGraph) CountWithOptions(pool *sched.Pool, opt CountOptions) *Result {
	blocks := lg.blocks()
	opt.Metrics.Add(obs.ShardTriples, int64(len(blocks)))
	return countBlocks(pool, lg.Shards, blocks, opt)
}

// blocks lists the block triples i <= j <= k that can hold a
// triangle (block.live), in enumeration order.
func (lg *LotusGraph) blocks() []block {
	var bs []block
	for k := 0; k < lg.P; k++ {
		for j := 0; j <= k; j++ {
			for i := 0; i <= j; i++ {
				if b := (block{I: i, J: j, K: k}); b.live(lg.Shards) {
					bs = append(bs, b)
				}
			}
		}
	}
	return bs
}

// withDefaults fills in the tiling defaults for a pool of the given
// workers.
func (opt CountOptions) withDefaults(workers int) CountOptions {
	if opt.TileThreshold <= 0 {
		opt.TileThreshold = DefaultTileThreshold
	}
	if opt.TilesPerVertex <= 0 {
		opt.TilesPerVertex = 2 * workers
	}
	return opt
}

// block is one block triple (I, J, K) of a row partition, as indices
// into the rows passed to countBlocks. Apexes x stream from rows[K],
// middle vertices y from rows[J] (its H2H rows in phase 1, its HE and
// NHE rows in HNN and NNN), and the closing vertex z must fall in the
// range of rows[I]. With ascending ranges and I <= J <= K, a triangle
// z < y < x lands in exactly one block, (block(z), block(y),
// block(x)), at the same apex and with the same class as in the flat
// count.
type block struct{ I, J, K int }

// live reports whether any phase can close a triangle in b.
func (b block) live(rows []*LotusShard) bool {
	p1, hnn, nnn := b.phases(rows)
	return p1 || hnn || nnn
}

// phases reports which phases can close a triangle in b. Phase 1
// needs hubs in I and J and an apex in K, HNN hubs in I and non-hubs
// in J and K, NNN non-hubs in all three. Hubs are the IDs below the
// hub count, so every range holds a hub prefix and a non-hub suffix.
func (b block) phases(rows []*LotusShard) (p1, hnn, nnn bool) {
	h := rows[0].HubCount
	hubs := func(r VertexRange) bool { return r.Lo < min(r.Hi, h) }
	nonHubs := func(r VertexRange) bool { return max(r.Lo, h) < r.Hi }
	i, j, k := rows[b.I].Range, rows[b.J].Range, rows[b.K].Range
	p1 = hubs(i) && hubs(j) && k.Len() > 0
	hnn = hubs(i) && nonHubs(j) && nonHubs(k)
	nnn = nonHubs(i) && nonHubs(j) && nonHubs(k)
	return p1, hnn, nnn
}

// span is a block resolved against its rows for the phase loops.
type span struct {
	apex, mid *LotusShard // the rows of K and of J
	i, j      VertexRange
	// hubCut and nonHubCut say whether I and J leave out part of the
	// IDs that HE rows ([0, h)) or NHE rows ([h, |V|)) hold, so that
	// restricting such a row to them can change it. The flat count's
	// single block cuts nothing.
	hubCut, nonHubCut cut
}

// cut marks which of I and J an apex row must be restricted to.
type cut struct{ i, j bool }

// any reports whether the row must be restricted at all.
func (c cut) any() bool { return c.i || c.j }

// resolve returns the spans of the blocks each phase can close a
// triangle in, in block order.
func resolve(rows []*LotusShard, blocks []block) (p1, hnn, nnn []span) {
	h, n := rows[0].HubCount, uint32(rows[0].numVertices)
	// cuts reports which of i and j leave out part of [lo, hi).
	cuts := func(i, j VertexRange, lo, hi uint32) cut {
		return cut{i: i.Lo > lo || i.Hi < hi, j: j.Lo > lo || j.Hi < hi}
	}
	for _, b := range blocks {
		i, j := rows[b.I].Range, rows[b.J].Range
		s := span{
			apex: rows[b.K], mid: rows[b.J], i: i, j: j,
			hubCut: cuts(i, j, 0, h), nonHubCut: cuts(i, j, h, n),
		}
		live1, liveHNN, liveNNN := b.phases(rows)
		if live1 {
			p1 = append(p1, s)
		}
		if liveHNN {
			hnn = append(hnn, s)
		}
		if liveNNN {
			nnn = append(nnn, s)
		}
	}
	return p1, hnn, nnn
}

// middleHubs returns the hubs of apex x's row in J, whose indices
// phase-1 tiles split.
func (s *span) middleHubs(x uint32) int {
	if s.hubCut.j {
		return len(restrict(s.apex.HENeighbors(x), s.j))
	}
	return s.apex.HE.Degree(x - s.apex.Range.Lo)
}

// cutRow returns an apex row restricted, as c says, to I (the closing
// vertices zs) and to J (the middle vertices ys). Callers test c.any
// first, so the flat count's loops never call it.
func cutRow[T uint16 | uint32](s *span, c cut, row []T) (zs, ys []T) {
	zs, ys = row, row
	if c.i {
		zs = restrict(row, s.i)
	}
	if c.j {
		ys = restrict(row, s.j)
	}
	return zs, ys
}

// restrict returns the sub-slice of the ascending row whose IDs fall
// in r.
func restrict[T uint16 | uint32](row []T, r VertexRange) []T {
	a := lowerBound(row, r.Lo)
	return row[a : a+lowerBound(row[a:], r.Hi)]
}

// lowerBound returns the number of entries of the ascending row below
// bound, by intersect.LowerBound's halving search over either row
// width.
func lowerBound[T uint16 | uint32](row []T, bound uint32) int {
	base, n := 0, len(row)
	for n > 1 {
		half := n >> 1
		if uint32(row[base+half-1]) < bound {
			base += half
		}
		n -= half
	}
	if n == 1 && uint32(row[base]) < bound {
		base++
	}
	return base
}

// countBlocks runs Algorithm 3 over blocks of a row partition. rows
// must be non-empty, built with one relabeling and hub count, with
// ranges that ascend and cover every vertex: a LotusGraph's shards.
// Phase 1 counts HHH and HHN triangles against the H2H rows of J,
// phase 2 HNN triangles by probing the HE rows of J against the
// apex's hubs in I, and phase 3 (unless SkipNNN) NNN triangles by
// probing the NHE rows of J against the apex's non-hub neighbours in
// I. Each phase runs the blocks it can close a triangle in as one task
// list. The totals are exact when the blocks hold every triangle
// exactly once.
func countBlocks(pool *sched.Pool, rows []*LotusShard, blocks []block, opt CountOptions) *Result {
	if pool == nil {
		pool = sched.NewPool(0)
	}
	opt = opt.withDefaults(pool.Workers())
	res := &Result{}
	m := opt.Metrics
	sc := opt.Scratch.forWorkers(pool.Workers())
	p1, hnn, nnn := resolve(rows, blocks)

	t0 := time.Now()
	res.Phase1Load = countPhase1(pool, p1, opt, sc.hubs, res)
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
	sc.dense.build(pool, rows)
	m.Add(obs.HNNDenseRows, int64(sc.dense.count))
	res.HNN, res.HNNLoad = countHNN(pool, hnn, opt, sc)
	res.HNNTime = time.Since(t1)
	m.Add("hnn.claims", res.HNNLoad.Claims)
	if !opt.SkipNNN {
		if pool.Cancelled() {
			return res
		}
		t2 := time.Now()
		res.NNNLoad = countNNN(pool, nnn, res, opt, sc.verts)
		res.NNNTime = time.Since(t2)
		m.Add("nnn.claims", res.NNNLoad.Claims)
	}
	m.AddDuration("hnn.ns", res.HNNTime)
	m.AddDuration("nnn.ns", res.NNNTime)

	res.Total = res.HHH + res.HHN + res.HNN + res.NNN
	return res
}

// tile is one unit of phase-1 work in spans[s]: either the apex range
// [vStart, vEnd) processed whole, or (when vEnd == 0 and hi > 0) the
// sub-range [lo, hi) of apex vStart's middle-hub indices.
type tile struct {
	s            uint32
	vStart, vEnd uint32
	lo, hi       uint32
}

// phase1Tiles builds the phase-1 task list over every span's apex
// range. Apexes with more than TileThreshold middle hubs become
// TilesPerVertex squared-edge pair tiles with boundaries
// i_k ≈ d·sqrt(k/p), equalizing pair work (§4.6); the remaining apexes
// are grouped into ranges of roughly equal pair work.
func phase1Tiles(spans []span, opt CountOptions, workers int) []tile {
	var tiles []tile
	// Sqrt(k/p) boundaries are shared across vertices (§4.6: values
	// of sqrt(f) are pre-calculated and reused).
	p := opt.TilesPerVertex
	sqrtF := make([]float64, p+1)
	for k := 0; k <= p; k++ {
		sqrtF[k] = math.Sqrt(float64(k) / float64(p))
	}
	var totalSmallWork uint64
	for si := range spans {
		s := &spans[si]
		for x := s.apex.Range.Lo; x < s.apex.Range.Hi; x++ {
			if d := s.middleHubs(x); d <= opt.TileThreshold {
				totalSmallWork += uint64(d) * uint64(d-1) / 2
			}
		}
	}
	budget := totalSmallWork/uint64(workers*16) + 1

	for si := range spans {
		s := &spans[si]
		r := s.apex.Range
		rangeStart := r.Lo
		var rangeWork uint64
		flush := func(endExclusive uint32) {
			if rangeStart < endExclusive {
				tiles = append(tiles, tile{s: uint32(si), vStart: rangeStart, vEnd: endExclusive})
			}
			rangeStart = endExclusive
			rangeWork = 0
		}
		for x := r.Lo; x < r.Hi; x++ {
			d := s.middleHubs(x)
			if d > opt.TileThreshold {
				flush(x)
				rangeStart = x + 1
				for k := 0; k < p; k++ {
					lo := uint32(float64(d) * sqrtF[k])
					hi := uint32(float64(d) * sqrtF[k+1])
					if k == p-1 {
						hi = uint32(d)
					}
					if hi > lo {
						tiles = append(tiles, tile{s: uint32(si), vStart: x, lo: lo, hi: hi})
					}
				}
				continue
			}
			rangeWork += uint64(d) * uint64(d-1) / 2
			if rangeWork >= budget {
				flush(x + 1)
			}
		}
		flush(r.Hi)
	}
	return tiles
}

// Phase1TileWork returns the pair-work (number of H2H probes) of
// every phase-1 tile the given options would produce. The Table 9
// experiment feeds this into a list-scheduling simulation to compute
// idle time at arbitrary thread counts, independent of the physical
// core count of the host. A worker count below 1 is taken as 1.
func (lg *LotusGraph) Phase1TileWork(opt CountOptions, workers int) []uint64 {
	workers = max(workers, 1)
	p1, _, _ := resolve(lg.Shards, lg.blocks())
	tiles := phase1Tiles(p1, opt.withDefaults(workers), workers)
	work := make([]uint64, len(tiles))
	for i, t := range tiles {
		if t.vEnd > 0 {
			var sum uint64
			for v := t.vStart; v < t.vEnd; v++ {
				d := uint64(p1[t.s].middleHubs(v))
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
// every apex, every pair (h1, h2) of a middle hub h1 and a closing hub
// h2 < h1 among its hub neighbours is probed in the H2H rows of J by
// CountHubPairs. Random accesses touch only H2H (§4.5).
func countPhase1(pool *sched.Pool, spans []span, opt CountOptions, bms *sched.WorkerLocal[intersect.HubBitmap], res *Result) sched.LoadReport {
	tiles := phase1Tiles(spans, opt, pool.Workers())
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
		s := &spans[t.s]
		bm := bms.Get(worker)
		// With one list for z and y (I == J), its lowest hub has no h2
		// below it, so the probe starts at the second.
		first := 0
		if s.i == s.j {
			first = 1
		}
		var localHHH, localHHN, localPolls uint64
		var localStats Phase1Stats
		// count probes the pairs of x's middle-hub indices [lo, hi),
		// hi capped at the middle hubs.
		count := func(x uint32, lo, hi int) {
			hv := s.apex.HENeighbors(x)
			zs, ys := hv, hv
			if s.hubCut.any() {
				zs, ys = cutRow(s, s.hubCut, hv)
			}
			if hi = min(hi, len(ys)); hi <= lo || len(zs) == 0 {
				return
			}
			found, st := CountHubPairs(opt.Phase1Kernel, pool, s.mid.H2H, bm, zs, ys, lo, hi)
			localStats.Pairs += st.Pairs
			localStats.WordOps += st.WordOps
			localStats.WordRows += st.WordRows
			localStats.ScalarRows += st.ScalarRows
			localPolls += st.Rows
			if x < s.apex.HubCount {
				localHHH += found
			} else {
				localHHN += found
			}
		}
		if t.vEnd > 0 { // apex-range tile
			he, base := s.apex.HE, s.apex.Range.Lo
			for x := t.vStart; x < t.vEnd; x++ {
				localPolls++
				if pool.Cancelled() {
					break
				}
				// A row of first hubs or fewer has no pair to probe.
				if he.Degree(x-base) > first {
					count(x, first, math.MaxInt)
				}
			}
		} else { // pair tile of a single high-degree apex
			count(t.vStart, max(int(t.lo), first), int(t.hi))
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

// sweep runs fn over the apex rows of every span as one ForTimed index
// space: the spans' apex ranges laid end to end and cut into chunks,
// which may run from one span into the next. fn sees one span's apex
// sub-range [lo, hi) at a time.
func sweep(pool *sched.Pool, spans []span, fn func(worker int, s *span, lo, hi uint32)) sched.LoadReport {
	ends := make([]int, len(spans)) // ends[b]: the apex rows of spans[:b+1]
	total := 0
	for b := range spans {
		total += spans[b].apex.Range.Len()
		ends[b] = total
	}
	return pool.ForTimed(total, 0, func(worker, start, end int) {
		b, _ := slices.BinarySearch(ends, start+1) // the span holding start
		for ; start < end; b++ {
			s := &spans[b]
			base := ends[b] - s.apex.Range.Len()
			stop := min(end, ends[b])
			fn(worker, s, s.apex.Range.Lo+uint32(start-base), s.apex.Range.Lo+uint32(stop-base))
			start = stop
		}
	})
}

// countHNN counts HNN triangles (Alg 3 lines 7-9): for every non-hub
// apex x and non-hub neighbour u in J, the common hub neighbours in I,
// |HE.N_x ∩ HE.N_u|, each close a triangle. Random accesses touch only
// HE rows, 2 bytes per edge (§4.5, Table 2). x's hubs in I are marked
// once in the worker's hub bitmap, every HE.N_u is probed against it
// (probeHE), and the marks are cleared before the next x.
// Cancellation is polled before the mark, so the bitmap is all-zero on
// every exit. It publishes its counters and returns its triangle
// total.
func countHNN(pool *sched.Pool, spans []span, opt CountOptions, sc *CountScratch) (uint64, sched.LoadReport) {
	m := opt.Metrics
	acc := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	wordRows := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	rep := sweep(pool, spans, func(worker int, s *span, lo, hi uint32) {
		bm := sc.hubs.Get(worker)
		apex := s.apex
		var local, localInter, localWords, localPolls uint64
		for x := lo; x < hi; x++ {
			localPolls++
			if pool.Cancelled() {
				break
			}
			zs := apex.HENeighbors(x)
			if s.hubCut.i {
				zs = restrict(zs, s.i)
			}
			if len(zs) == 0 {
				continue
			}
			us := apex.NHENeighbors(x)
			if s.nonHubCut.j {
				us = restrict(us, s.j)
			}
			if len(us) == 0 {
				continue
			}
			localInter += uint64(len(us))
			bm.Mark(zs)
			found, words := probeHE(bm, &sc.dense, s.mid, us)
			bm.Clear(zs)
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

// probeHE counts, over every u in us, the hubs of HE.N_u (a row of
// mid) marked in bm. A dense HE.N_u is probed as
// Σ popcount(bm[j] & row_u[j]) over its dense-index bitset; every
// other row element by element, branch-free. words counts the rows
// probed word-wise.
func probeHE(bm *intersect.HubBitmap, dense *denseRows, mid *LotusShard, us []uint32) (found, words uint64) {
	he, base := mid.HE, mid.Range.Lo
	for _, u := range us {
		if row := dense.row(u); row != nil {
			found += bm.CountWords(row)
			words++
		} else {
			found += bm.Count(he.Neighbors(u - base))
		}
	}
	return found, words
}

// countNNN counts NNN triangles (Alg 3 lines 10-12): the Forward
// algorithm restricted to the NHE sub-graph. Hub edges are never
// touched — the §3.3 pruning. Apex x's non-hub neighbours in I are
// marked once in the worker's vertex bitmap and every NHE.N_u, u one
// of its non-hub neighbours in J, is probed against it (opt.Intersect;
// merge join under the ablation baseline). Apexes that cannot close a
// triangle are skipped. Cancellation is polled before the mark, so
// the bitmap is all-zero on every exit.
func countNNN(pool *sched.Pool, spans []span, res *Result, opt CountOptions, vbs *sched.WorkerLocal[intersect.VertexBitmap]) sched.LoadReport {
	m := opt.Metrics
	k := opt.Intersect
	acc := sched.NewAccumulator(pool.Workers())
	inter := sched.NewAccumulator(pool.Workers())
	polls := sched.NewAccumulator(pool.Workers())
	rep := sweep(pool, spans, func(worker int, s *span, lo, hi uint32) {
		bm := vertexBitmap(vbs, worker, s.apex.numVertices)
		// With one list for z and y (I == J), a row closes a triangle
		// only from two entries up.
		minLen := 1
		if s.i == s.j {
			minLen = 2
		}
		apex, restricted := s.apex, s.nonHubCut.any()
		rows, base := s.mid.NHE, s.mid.Range.Lo
		var local, localInter, localPolls uint64
		for x := lo; x < hi; x++ {
			localPolls++
			if pool.Cancelled() {
				break
			}
			nv := apex.NHENeighbors(x)
			zs, us := nv, nv
			if restricted {
				zs, us = cutRow(s, s.nonHubCut, nv)
			}
			if len(us) < minLen || len(zs) == 0 {
				continue
			}
			localInter += uint64(len(us))
			local += k.CountRows(bm, zs, us, rows, base)
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
