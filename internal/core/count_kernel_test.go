package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// kernelCorpus returns the graphs the phase-1 equivalence tests sweep:
// structured shapes that stress specific kernel paths (dense rows,
// stars with one giant row, triangle-free rings, bipartite graphs with
// zero HHH) plus skewed random graphs. Sizes shrink under -short so
// `make check` stays fast with -race on.
func kernelCorpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	scale, edges := uint(12), 1<<15
	if testing.Short() {
		scale, edges = 9, 1<<12
	}
	return map[string]*graph.Graph{
		"complete":  gen.Complete(80),
		"star":      gen.Star(300),
		"ring":      gen.Ring(200),
		"bipartite": gen.CompleteBipartite(20, 40),
		"planted":   gen.PlantedTriangles(25, 4),
		"hubspokes": gen.HubAndSpokes(8, 400, 3, 7),
		"rmat":      gen.RMAT(gen.DefaultRMAT(scale, 8, 42)),
		"chunglu":   gen.ChungLu(gen.ChungLuParams{N: 1 << scale, M: edges, Gamma: 2.3, Seed: 99}),
	}
}

// TestPhase1KernelEquivalence asserts the word-parallel phase-1 kernel
// is bit-identical to the scalar one — not just in Total but in the
// per-class HHH/HHN split — across the corpus and several hub counts,
// and that the auto heuristic (whatever mix it picks) agrees too.
func TestPhase1KernelEquivalence(t *testing.T) {
	for name, g := range kernelCorpus(t) {
		for _, hubs := range []int{0, 1, 16, 128, 1024} {
			lg := Preprocess(g, Options{HubCount: hubs, Pool: pool})
			var results [3]*Result
			var metrics [3]*obs.Metrics
			for i, k := range []Phase1Kernel{Phase1Scalar, Phase1Word, Phase1Auto} {
				m := obs.New()
				results[i] = lg.CountWithOptions(pool, CountOptions{Phase1Kernel: k, Metrics: m})
				metrics[i] = m
			}
			scalar, word, auto := results[0], results[1], results[2]
			for _, c := range []struct {
				kernel string
				got    *Result
			}{{"word", word}, {"auto", auto}} {
				if c.got.HHH != scalar.HHH || c.got.HHN != scalar.HHN || c.got.Total != scalar.Total {
					t.Errorf("%s hubs=%d kernel=%s: HHH/HHN/Total = %d/%d/%d, scalar = %d/%d/%d",
						name, hubs, c.kernel, c.got.HHH, c.got.HHN, c.got.Total,
						scalar.HHH, scalar.HHN, scalar.Total)
				}
			}
			// Routing counters must partition the rows: the forced
			// kernels route everything one way, and auto's split sums
			// to the same row count.
			if n := metrics[0].Get(obs.Phase1RowsWord); n != 0 {
				t.Errorf("%s hubs=%d: scalar run routed %d rows to the word kernel", name, hubs, n)
			}
			if n := metrics[1].Get(obs.Phase1RowsScalar); n != 0 {
				t.Errorf("%s hubs=%d: word run routed %d rows to the scalar kernel", name, hubs, n)
			}
			rows := metrics[0].Get(obs.Phase1RowsScalar)
			if split := metrics[2].Get(obs.Phase1RowsWord) + metrics[2].Get(obs.Phase1RowsScalar); split != rows {
				t.Errorf("%s hubs=%d: auto routed %d rows, scalar saw %d", name, hubs, split, rows)
			}
			if rows > 0 && metrics[1].Get(obs.Phase1WordOps) == 0 {
				t.Errorf("%s hubs=%d: word run reported zero word ops over %d rows", name, hubs, rows)
			}
		}
	}
}

// TestPhase1KernelEquivalenceTiled forces the pair-tiling path (tiny
// TileThreshold splits every hub's row range across tiles) where the
// word kernel's bitmap covers the whole neighbour list but each tile
// only walks a sub-range of h1 indices. It runs the flat count and a
// p-way grid of equal-width range shards at p = 1..4 (every live
// block triple i <= j <= k), whose pair tiles split an apex's hubs
// of one block while the closing hubs come from another; every run
// must match the flat scalar count, and tiling must add tiles.
func TestPhase1KernelEquivalenceTiled(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 16, 3))
	// At 512 of 1024 hubs the grid's hubs span two blocks or more, so
	// z and y of one apex come from different blocks.
	for _, hubs := range []int{64, 512} {
		lg := Preprocess(g, Options{HubCount: hubs, Pool: pool})
		base := lg.CountWithOptions(pool, CountOptions{Phase1Kernel: Phase1Scalar})
		counts := map[string]func(CountOptions) *Result{"flat": func(opt CountOptions) *Result {
			return lg.CountWithOptions(pool, opt)
		}}
		n := uint32(lg.NumVertices())
		for p := 1; p <= 4; p++ {
			// Equal-width ranges rather than NewPlan's weighted ones, so
			// the hub range is cut at p = 2 already.
			pl := &Plan{P: p, Relabeling: lg.Relabeling, HubCount: lg.HubCount}
			shards := make([]*LotusShard, p)
			for b := range shards {
				pl.Ranges = append(pl.Ranges, VertexRange{Lo: n * uint32(b) / uint32(p), Hi: n * uint32(b+1) / uint32(p)})
				var err error
				if shards[b], err = pl.BuildShard(g, b, pool, nil); err != nil {
					t.Fatal(err)
				}
			}
			grid, err := Assemble(pl, shards)
			if err != nil {
				t.Fatal(err)
			}
			counts[fmt.Sprintf("grid p=%d", p)] = func(opt CountOptions) *Result {
				return grid.CountWithOptions(pool, opt)
			}
		}
		for name, count := range counts {
			untiled, tiled := obs.New(), obs.New()
			count(CountOptions{Phase1Kernel: Phase1Scalar, Metrics: untiled})
			for _, k := range []Phase1Kernel{Phase1Scalar, Phase1Word, Phase1Auto} {
				opt := CountOptions{Phase1Kernel: k, TileThreshold: 8, TilesPerVertex: 7}
				if k == Phase1Scalar {
					opt.Metrics = tiled
				}
				got := count(opt)
				if got.HHH != base.HHH || got.HHN != base.HHN || got.Total != base.Total {
					t.Errorf("hubs=%d %s kernel=%s: HHH/HHN/Total = %d/%d/%d, want %d/%d/%d",
						hubs, name, k, got.HHH, got.HHN, got.Total, base.HHH, base.HHN, base.Total)
				}
			}
			if a, b := untiled.Get("phase1.tiles"), tiled.Get("phase1.tiles"); b <= a {
				t.Errorf("hubs=%d %s: %d phase-1 tiles at TileThreshold 8, %d untiled; want more", hubs, name, b, a)
			}
		}
	}
}

// TestIntersectKernelEquivalence asserts the NNN vertex-bitmap kernel
// returns the same per-class counts as merge join, and that the
// dispatch counters account for every row: one hub-bitmap probe per
// HE-row intersection, one vertex-bitmap (or, under merge, merge-join)
// probe per NHE-row intersection, and no retired counter published.
func TestIntersectKernelEquivalence(t *testing.T) {
	for name, g := range kernelCorpus(t) {
		lg := Preprocess(g, Options{HubCount: 32, Pool: pool})
		merge := CountOptions{Intersect: IntersectMerge, Metrics: obs.New()}
		bitmap := CountOptions{Intersect: IntersectBitmap, Metrics: obs.New()}
		wantRes := lg.CountWithOptions(pool, merge)
		gotRes := lg.CountWithOptions(pool, bitmap)
		if gotRes.HNN != wantRes.HNN || gotRes.NNN != wantRes.NNN || gotRes.Total != wantRes.Total {
			t.Errorf("%s: bitmap HNN/NNN/Total = %d/%d/%d, merge = %d/%d/%d",
				name, gotRes.HNN, gotRes.NNN, gotRes.Total, wantRes.HNN, wantRes.NNN, wantRes.Total)
		}
		for _, c := range []struct {
			m               *obs.Metrics
			published, idle string
		}{
			{bitmap.Metrics, obs.NNNDispatchBitmap, obs.NNNDispatchMerge},
			{merge.Metrics, obs.NNNDispatchMerge, obs.NNNDispatchBitmap},
		} {
			m := c.m
			if rows := m.Get(obs.HNNDispatchBitmap); rows != m.Get("hnn.he_intersections") {
				t.Errorf("%s %s: %d hub-bitmap row probes != %d HE intersections",
					name, c.published, rows, m.Get("hnn.he_intersections"))
			}
			if rows := m.Get(c.published); rows != m.Get("nnn.nhe_intersections") {
				t.Errorf("%s: %s = %d != %d NHE intersections",
					name, c.published, rows, m.Get("nnn.nhe_intersections"))
			}
			snap := m.Snapshot()
			for _, unpublished := range []string{c.idle, obs.NNNDispatchGallop, obs.HNNDispatchMerge, obs.HNNDispatchGallop} {
				if _, ok := snap[unpublished]; ok {
					t.Errorf("%s %s: %s published", name, c.published, unpublished)
				}
			}
		}
	}
}

// TestPhase1WordKernelCancellation drives the word kernel under
// cancellation: a pre-cancelled context must return immediately with
// nothing counted, and a mid-phase cancel must neither panic nor race
// (the per-worker bitmap is cleared on the cancellation exit path, so
// a fresh count on the same pool stays correct).
func TestPhase1WordKernelCancellation(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 16, 5))
	lg := Preprocess(g, Options{HubCount: 512, Pool: pool})
	want := lg.CountWithOptions(pool, CountOptions{Phase1Kernel: Phase1Word})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := pool.Bind(ctx)
	defer dead.Release()
	if res := lg.CountWithOptions(dead, CountOptions{Phase1Kernel: Phase1Word}); res.Total != 0 {
		t.Fatalf("pre-cancelled count = %d, want 0", res.Total)
	}

	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
		ctx, cancel := context.WithCancel(context.Background())
		bound := pool.Bind(ctx)
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(delay)
		res := lg.CountWithOptions(bound, CountOptions{Phase1Kernel: Phase1Word, TileThreshold: 8})
		bound.Release()
		if !bound.Cancelled() && (res.HHH != want.HHH || res.HHN != want.HHN) {
			t.Fatalf("uncancelled run diverged: %d/%d want %d/%d", res.HHH, res.HHN, want.HHH, want.HHN)
		}
		if res.HHH > want.HHH || res.HHN > want.HHN {
			t.Fatalf("cancelled run overcounted: %d/%d vs full %d/%d — stale bitmap bits?",
				res.HHH, res.HHN, want.HHH, want.HHN)
		}
		// The same pool must still count correctly afterwards.
		again := lg.CountWithOptions(pool, CountOptions{Phase1Kernel: Phase1Word})
		if again.Total != want.Total {
			t.Fatalf("post-cancel count = %d, want %d", again.Total, want.Total)
		}
	}
}

func TestKernelParsers(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Phase1Kernel
		ok   bool
	}{{"", Phase1Auto, true}, {"auto", Phase1Auto, true}, {"scalar", Phase1Scalar, true},
		{"word", Phase1Word, true}, {"simd", Phase1Auto, false}} {
		got, err := ParsePhase1Kernel(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePhase1Kernel(%q) = %v, %v", c.in, got, err)
		}
		if c.ok && got.String() != c.in && c.in != "" {
			t.Errorf("Phase1Kernel round-trip: %q -> %q", c.in, got.String())
		}
	}
	for _, c := range []struct {
		in   string
		want IntersectKernel
		ok   bool
	}{{"", IntersectBitmap, true}, {"bitmap", IntersectBitmap, true},
		{"merge", IntersectMerge, true}, {"adaptive", IntersectBitmap, false},
		{"hash", IntersectBitmap, false}} {
		got, err := ParseIntersectKernel(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseIntersectKernel(%q) = %v, %v", c.in, got, err)
		}
		if c.ok && got.String() != c.in && c.in != "" {
			t.Errorf("IntersectKernel round-trip: %q -> %q", c.in, got.String())
		}
	}
}

// TestHNNCancellationLeavesBitmapsClear cancels the HNN and the NNN
// loop mid-run, asserts every worker's hub and vertex bitmaps are
// all-zero, then reuses the same CountScratch for a fresh count,
// which must be exact in every class:
// a cancellation exit that left marks in a worker's bitmap would
// inflate the next count's HHH/HHN, HNN or NNN.
func TestHNNCancellationLeavesBitmapsClear(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 16, 5))
	lg := Preprocess(g, Options{HubCount: 512, Pool: pool})
	want := lg.Count(pool)
	scratch := NewCountScratch()
	opt := CountOptions{Scratch: scratch}
	rows := lg.Shards
	_, hnn, nnn := resolve(rows, lg.blocks())
	for name, run := range map[string]func(p *sched.Pool, res *Result, sc *CountScratch){
		"hnn": func(p *sched.Pool, res *Result, sc *CountScratch) {
			sc.dense.build(p, rows)
			res.HNN, _ = countHNN(p, hnn, opt, sc)
		},
		"nnn": func(p *sched.Pool, res *Result, sc *CountScratch) {
			countNNN(p, nnn, res, opt, sc.verts)
		},
	} {
		sc := scratch.forWorkers(pool.Workers())
		ctx, cancel := context.WithCancel(context.Background())
		bound := pool.Bind(ctx)
		time.AfterFunc(time.Millisecond, cancel)
		// Nothing but the loop under test runs until the cancel lands,
		// so it interrupts that loop.
		var partial bool
		for !bound.Cancelled() {
			res := &Result{}
			run(bound, res, sc)
			partial = res.HNN+res.NNN < want.HNN+want.NNN
		}
		bound.Release()
		t.Logf("%s: last run cut short: %v", name, partial)
		for w := 0; w < pool.Workers(); w++ {
			for i, word := range sc.hubs.Get(w) {
				if word != 0 {
					t.Fatalf("%s: worker %d hub bitmap word %d = %#x after cancellation, want 0", name, w, i, word)
				}
			}
			for i, word := range *sc.verts.Get(w) {
				if word != 0 {
					t.Fatalf("%s: worker %d vertex bitmap word %d = %#x after cancellation, want 0", name, w, i, word)
				}
			}
		}
		got := lg.CountWithOptions(pool, opt)
		if got.Total != want.Total || got.HHH != want.HHH || got.HHN != want.HHN ||
			got.HNN != want.HNN || got.NNN != want.NNN {
			t.Fatalf("%s: count after cancellation = %d (%d/%d/%d/%d), want %d (%d/%d/%d/%d)",
				name, got.Total, got.HHH, got.HHN, got.HNN, got.NNN,
				want.Total, want.HHH, want.HHN, want.HNN, want.NNN)
		}
	}
}

// hnnReference counts HNN triangles by merging HE.N_v with HE.N_u for
// every NHE edge (v, u): the paper's loop, independent of the hub
// bitmap and the dense-row index.
func hnnReference(lg *LotusGraph) uint64 {
	var n uint64
	for v := 0; v < lg.NumVertices(); v++ {
		hv := lg.Shards[0].HE.Neighbors(uint32(v))
		for _, u := range lg.Shards[0].NHE.Neighbors(uint32(v)) {
			hu := lg.Shards[0].HE.Neighbors(u)
			for i, j := 0, 0; i < len(hv) && j < len(hu); {
				switch {
				case hv[i] < hu[j]:
					i++
				case hv[i] > hu[j]:
					j++
				default:
					n++
					i++
					j++
				}
			}
		}
	}
	return n
}

// TestCountScratchReuseAcrossGraphs reuses one CountScratch across
// graphs of 2^10, 2^14 and again 2^10 vertices with 64, 1000 and 64
// hubs, under both NNN kernels: every count must
// match a scratch-free merge-join count exactly in every class, and
// that count's HNN must match a merge-join HNN reference. The
// vertex bitmaps and the dense-row slab grow to the largest graph and
// stay there, so the final small graph runs on bitmaps four times
// wider than it needs and lays its one-word dense rows out again in a
// slab last filled with 16-word rows.
func TestCountScratchReuseAcrossGraphs(t *testing.T) {
	scratch := NewCountScratch()
	slabCap := 0
	for i, c := range []struct {
		scale uint
		hubs  int
	}{{10, 64}, {14, 1000}, {10, 64}} {
		g := gen.RMAT(gen.DefaultRMAT(c.scale, 8, int64(20+i)))
		lg := Preprocess(g, Options{HubCount: c.hubs, Pool: pool})
		want := lg.CountWithOptions(pool, CountOptions{Intersect: IntersectMerge})
		if ref := hnnReference(lg); want.HNN != ref {
			t.Fatalf("scale %d hubs %d: HNN = %d, merge-join reference %d", c.scale, c.hubs, want.HNN, ref)
		}
		for _, opt := range []CountOptions{
			{},
			{Intersect: IntersectMerge},
		} {
			m := obs.New()
			opt.Scratch = scratch
			opt.Metrics = m
			got := lg.CountWithOptions(pool, opt)
			if got.Total != want.Total || got.HHH != want.HHH || got.HHN != want.HHN ||
				got.HNN != want.HNN || got.NNN != want.NNN {
				t.Fatalf("scale %d hubs %d %+v: count = %d (%d/%d/%d/%d), want %d (%d/%d/%d/%d)",
					c.scale, c.hubs, opt, got.Total, got.HHH, got.HHN, got.HNN, got.NNN,
					want.Total, want.HHH, want.HHN, want.HNN, want.NNN)
			}
			if m.Get(obs.HNNDenseRows) == 0 || m.Get(obs.HNNDispatchWords) == 0 {
				t.Fatalf("scale %d hubs %d: %d dense rows, %d probed word-wise; the test needs both above 0",
					c.scale, c.hubs, m.Get(obs.HNNDenseRows), m.Get(obs.HNNDispatchWords))
			}
		}
		if cap(scratch.dense.slab) < slabCap {
			t.Errorf("scale %d hubs %d: dense-row slab shrank from %d to %d words", c.scale, c.hubs, slabCap, cap(scratch.dense.slab))
		}
		slabCap = cap(scratch.dense.slab)
		wide := 0
		for w := 0; w < pool.Workers(); w++ {
			wide = max(wide, len(*scratch.verts.Get(w)))
		}
		if wide < 1<<14/64 && i > 0 {
			t.Errorf("scale %d: widest vertex bitmap %d words, want the 2^14 graph's %d kept", c.scale, wide, 1<<14/64)
		}
	}
}
