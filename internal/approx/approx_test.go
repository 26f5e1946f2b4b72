package approx

import (
	"context"
	"math"
	"runtime"
	"testing"

	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/sched"
)

var pool = sched.NewPool(2)

func TestDoulionExactAtP1(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 1))
	want := float64(baseline.BruteForce(g))
	if got := Doulion(g, 1.0, 7, pool); got != want {
		t.Fatalf("Doulion(p=1) = %v, want %v", got, want)
	}
	if got := Doulion(g, 0, 7, pool); got != 0 {
		t.Fatalf("Doulion(p=0) = %v, want 0", got)
	}
}

func TestDoulionUnbiasedOnAverage(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 10, 2))
	truth := float64(baseline.Forward(g, pool, baseline.KernelMerge))
	var sum float64
	const runs = 12
	for seed := int64(0); seed < runs; seed++ {
		sum += Doulion(g, 0.5, seed, pool)
	}
	mean := sum / runs
	if rel := math.Abs(mean-truth) / truth; rel > 0.10 {
		t.Fatalf("Doulion mean %.0f deviates %.1f%% from truth %.0f", mean, 100*rel, truth)
	}
}

func TestWedgeSamplingExactOnClique(t *testing.T) {
	// All wedges of K_n close, so the estimate is exactly C(n,3)
	// regardless of sampling noise.
	g := gen.Complete(12)
	got := WedgeSampling(g, 500, 3)
	if got != 220 {
		t.Fatalf("K12 wedge estimate = %v, want 220", got)
	}
	// Triangle-free graphs estimate exactly 0.
	if got := WedgeSampling(gen.CompleteBipartite(6, 6), 500, 3); got != 0 {
		t.Fatalf("bipartite estimate = %v, want 0", got)
	}
}

func TestWedgeSamplingAccuracy(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 10, 4))
	truth := float64(baseline.Forward(g, pool, baseline.KernelMerge))
	got := WedgeSampling(g, 200000, 5)
	if rel := math.Abs(got-truth) / truth; rel > 0.10 {
		t.Fatalf("wedge estimate %.0f deviates %.1f%% from truth %.0f", got, 100*rel, truth)
	}
}

func TestWedgeSamplingDegenerate(t *testing.T) {
	if WedgeSampling(gen.Path(2), 100, 1) != 0 {
		t.Fatal("single edge has no wedges")
	}
	empty := gen.Path(0)
	if WedgeSampling(empty, 100, 1) != 0 {
		t.Fatal("empty graph")
	}
}

func TestHybridExactAtP1(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 6))
	truth := float64(baseline.BruteForce(g))
	h := Hybrid(g, 1.0, 1, core.Options{Pool: pool}, pool)
	if h.Estimate != truth {
		t.Fatalf("Hybrid(p=1) = %v, want %v", h.Estimate, truth)
	}
	if h.ExactHub == 0 {
		t.Fatal("no exact hub triangles on a skewed graph")
	}
}

func TestHybridBeatsDoulionOnSkewedGraph(t *testing.T) {
	// §6.2: exact hub counting bounds the sampling error by the NNN
	// share. Compare mean absolute relative error across seeds at the
	// same p on a skewed graph.
	g := gen.RMAT(gen.DefaultRMAT(11, 10, 8))
	truth := float64(baseline.Forward(g, pool, baseline.KernelMerge))
	const runs = 8
	const p = 0.3
	var errD, errH float64
	for seed := int64(0); seed < runs; seed++ {
		d := Doulion(g, p, seed, pool)
		h := Hybrid(g, p, seed, core.Options{Pool: pool}, pool)
		errD += math.Abs(d-truth) / truth
		errH += math.Abs(h.Estimate-truth) / truth
	}
	errD /= runs
	errH /= runs
	if errH >= errD {
		t.Fatalf("hybrid error %.4f not below doulion error %.4f", errH, errD)
	}
	// And on a skewed graph the hybrid's sampled share must be small.
	h := Hybrid(g, p, 0, core.Options{Pool: pool}, pool)
	if h.NNNShare > 0.5 {
		t.Fatalf("NNN share %.2f unexpectedly high on skewed graph", h.NNNShare)
	}
}

func TestHybridPartsConsistent(t *testing.T) {
	g := gen.HubAndSpokes(16, 400, 4, 3)
	h := Hybrid(g, 0.5, 2, core.Options{HubCount: 16, Pool: pool}, pool)
	if h.Estimate != float64(h.ExactHub)+h.EstimatedNNN {
		t.Fatal("estimate != exact + estimated")
	}
	// Hub-and-spokes has zero NNN triangles: hybrid is exact.
	want := float64(baseline.BruteForce(g))
	if h.Estimate != want {
		t.Fatalf("hybrid on NNN-free graph = %v, want %v", h.Estimate, want)
	}
	if h.NNNShare != 0 {
		t.Fatalf("NNN share = %v, want 0", h.NNNShare)
	}
}

// TestCancelledPoolEstimatesZero: an estimator whose pool is cancelled
// before or during its LOTUS build reports 0 rather than panicking;
// the caller's context reports the abort (serve's /v1/estimate answers
// the deadline).
func TestCancelledPoolEstimatesZero(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cp := sched.NewPool(2).Bind(ctx)
	defer cp.Release()
	for !cp.Cancelled() { // Bind observes the context asynchronously
		runtime.Gosched()
	}
	for _, p := range []float64{0.5, 1} {
		if d := Doulion(g, p, 1, cp); d != 0 {
			t.Errorf("Doulion(p=%v) on a cancelled pool = %v, want 0", p, d)
		}
		if h := Hybrid(g, p, 1, core.Options{Pool: cp}, cp); h != (HybridResult{}) {
			t.Errorf("Hybrid(p=%v) on a cancelled pool = %+v, want zero", p, h)
		}
	}
}
