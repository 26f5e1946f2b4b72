package core

import (
	"context"
	"testing"
	"time"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
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
// only walks a sub-range of h1 indices.
func TestPhase1KernelEquivalenceTiled(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 16, 3))
	lg := Preprocess(g, Options{HubCount: 64, Pool: pool})
	base := lg.CountWithOptions(pool, CountOptions{Phase1Kernel: Phase1Scalar})
	for _, k := range []Phase1Kernel{Phase1Word, Phase1Auto} {
		for _, ws := range []bool{false, true} {
			got := lg.CountWithOptions(pool, CountOptions{
				Phase1Kernel: k, TileThreshold: 8, TilesPerVertex: 7, WorkStealing: ws,
			})
			if got.HHH != base.HHH || got.HHN != base.HHN || got.Total != base.Total {
				t.Errorf("kernel=%s stealing=%v: HHH/HHN/Total = %d/%d/%d, want %d/%d/%d",
					k, ws, got.HHH, got.HHN, got.Total, base.HHH, base.HHN, base.Total)
			}
		}
	}
}

// TestIntersectKernelEquivalence asserts the adaptive NNN dispatch
// returns the same per-class counts as unconditional merge join, over
// the plain, blocked and fused phase variants, and that HNN reports
// one hub-bitmap probe per HE-row intersection.
func TestIntersectKernelEquivalence(t *testing.T) {
	for name, g := range kernelCorpus(t) {
		lg := Preprocess(g, Options{HubCount: 32, Pool: pool})
		variants := []CountOptions{
			{},
			{HNNBlocks: 4},
			{FuseHNNAndNNN: true},
		}
		for _, v := range variants {
			merge, adaptive := v, v
			merge.Intersect = IntersectMerge
			adaptive.Intersect = IntersectAdaptive
			adaptive.Metrics = obs.New()
			wantRes := lg.CountWithOptions(pool, merge)
			gotRes := lg.CountWithOptions(pool, adaptive)
			if gotRes.HNN != wantRes.HNN || gotRes.NNN != wantRes.NNN || gotRes.Total != wantRes.Total {
				t.Errorf("%s %+v: adaptive HNN/NNN/Total = %d/%d/%d, merge = %d/%d/%d",
					name, v, gotRes.HNN, gotRes.NNN, gotRes.Total, wantRes.HNN, wantRes.NNN, wantRes.Total)
			}
			m := adaptive.Metrics
			if rows := m.Get(obs.HNNDispatchBitmap); rows != m.Get("hnn.he_intersections") && !v.FuseHNNAndNNN {
				t.Errorf("%s %+v: %d bitmap row probes != %d intersections",
					name, v, rows, m.Get("hnn.he_intersections"))
			}
			snap := m.Snapshot()
			for _, retired := range []string{obs.HNNDispatchMerge, obs.HNNDispatchGallop} {
				if _, ok := snap[retired]; ok {
					t.Errorf("%s %+v: retired counter %s still published", name, v, retired)
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
	}{{"", IntersectAdaptive, true}, {"adaptive", IntersectAdaptive, true},
		{"merge", IntersectMerge, true}, {"hash", IntersectAdaptive, false}} {
		got, err := ParseIntersectKernel(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseIntersectKernel(%q) = %v, %v", c.in, got, err)
		}
	}
}

// TestHNNCancellationLeavesBitmapsClear cancels each HNN loop (flat,
// blocked, fused) mid-run, then reuses the same CountScratch for a
// fresh count, which must be exact in every class: a cancellation exit
// that left marks in a worker's hub bitmap would inflate the next
// count's HHH/HHN or HNN.
func TestHNNCancellationLeavesBitmapsClear(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 16, 5))
	lg := Preprocess(g, Options{HubCount: 512, Pool: pool})
	want := lg.Count(pool)
	scratch := NewCountScratch()
	for name, opt := range map[string]CountOptions{
		"flat":    {},
		"blocked": {HNNBlocks: 4},
		"fused":   {FuseHNNAndNNN: true},
	} {
		opt.Scratch = scratch
		bms := hubBitmaps(scratch, pool.Workers())
		ctx, cancel := context.WithCancel(context.Background())
		bound := pool.Bind(ctx)
		time.AfterFunc(time.Millisecond, cancel)
		// Nothing but HNN loops runs until the cancel lands, so it
		// interrupts one of them.
		var partial bool
		for !bound.Cancelled() {
			res := &Result{}
			switch {
			case opt.FuseHNNAndNNN:
				lg.countFused(bound, res, opt, bms)
			case opt.HNNBlocks > 1:
				lg.countHNNBlocked(bound, res, opt, bms)
			default:
				lg.countHNN(bound, res, opt, bms)
			}
			partial = res.HNN < want.HNN
		}
		bound.Release()
		t.Logf("%s: last HNN run cut short: %v", name, partial)
		for w := 0; w < pool.Workers(); w++ {
			for i, word := range bms.Get(w) {
				if word != 0 {
					t.Fatalf("%s: worker %d bitmap word %d = %#x after cancellation, want 0", name, w, i, word)
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
