package engine

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
)

// builtins snapshots the registry before any test registers extra
// kernels, so table tests iterate exactly the built-in set. It is
// captured in TestMain because package-level vars initialize before
// the init() that performs the built-in registrations.
var builtins []string

func TestMain(m *testing.M) {
	builtins = Algorithms()
	os.Exit(m.Run())
}

// k12Triangles is C(12,3): every vertex triple of the complete graph.
const k12Triangles = 220

func TestRegistryResolvesEveryBuiltin(t *testing.T) {
	if len(builtins) != 14 {
		t.Fatalf("expected 14 built-in algorithms, got %d: %v", len(builtins), builtins)
	}
	g := gen.Complete(12)
	for _, name := range builtins {
		reg, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if reg.Name != name {
			t.Fatalf("Lookup(%q) returned registration named %q", name, reg.Name)
		}
		rep, err := Run(context.Background(), g, Spec{Algorithm: name})
		if err != nil {
			t.Fatalf("Run(%q): %v", name, err)
		}
		if rep.Triangles != k12Triangles {
			t.Errorf("Run(%q) counted %d triangles on K12, want %d", name, rep.Triangles, k12Triangles)
		}
		if rep.Algorithm != name {
			t.Errorf("Run(%q) labeled report %q", name, rep.Algorithm)
		}
		if rep.Elapsed <= 0 {
			t.Errorf("Run(%q) reported non-positive Elapsed", name)
		}
		if reg.Caps.ReportsPhases && rep.Phase(PhasePreprocess) <= 0 {
			t.Errorf("Run(%q) declares ReportsPhases but recorded no preprocess time", name)
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	nop := func(*Task) (uint64, error) { return 0, nil }
	if err := Register("", Capabilities{}, nop); err == nil {
		t.Error("empty name should fail")
	}
	if err := Register("test-nil-kernel", Capabilities{}, nil); err == nil {
		t.Error("nil kernel should fail")
	}
	if err := Register("lotus", Capabilities{}, nop); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate registration should fail, got %v", err)
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("no-such-algorithm")
	if err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("want unknown-algorithm error, got %v", err)
	}
	// The error lists what is available, so a typoed CLI flag is
	// self-explanatory.
	if !strings.Contains(err.Error(), "lotus") {
		t.Errorf("error should list available algorithms: %v", err)
	}
	if _, err := Run(context.Background(), gen.Complete(4), Spec{Algorithm: "no-such-algorithm"}); err == nil {
		t.Error("Run with unknown algorithm should fail")
	}
}

func TestRunNilGraph(t *testing.T) {
	_, err := Run(context.Background(), nil, Spec{})
	if !errors.Is(err, ErrNilGraph) {
		t.Fatalf("want ErrNilGraph, got %v", err)
	}
}

func TestRunRejectsOrientedGraph(t *testing.T) {
	og := gen.Complete(6).Orient()
	_, err := Run(context.Background(), og, Spec{})
	if err == nil || !strings.Contains(err.Error(), "symmetric") {
		t.Fatalf("want symmetric-graph error, got %v", err)
	}
}

func TestRunDefaultsToLotus(t *testing.T) {
	rep, err := Run(context.Background(), gen.Complete(12), Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != DefaultAlgorithm {
		t.Fatalf("default algorithm %q, want %q", rep.Algorithm, DefaultAlgorithm)
	}
	if rep.Triangles != k12Triangles {
		t.Fatalf("triangles = %d, want %d", rep.Triangles, k12Triangles)
	}
	// K12 with an adaptive hub count: every triangle involves a hub,
	// and the class split must sum to the total.
	if got := rep.HHH + rep.HHN + rep.HNN + rep.NNN; got != rep.Triangles {
		t.Fatalf("class split %d does not sum to total %d", got, rep.Triangles)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	MustRegister("test-panic", Capabilities{}, func(*Task) (uint64, error) {
		panic("kaboom")
	})
	_, err := Run(context.Background(), gen.Complete(4), Spec{Algorithm: "test-panic"})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic-to-error with message, got %v", err)
	}
}

func TestRunKernelErrorPropagates(t *testing.T) {
	sentinel := errors.New("kernel says no")
	MustRegister("test-error", Capabilities{}, func(*Task) (uint64, error) {
		return 0, sentinel
	})
	_, err := Run(context.Background(), gen.Complete(4), Spec{Algorithm: "test-error"})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want kernel error, got %v", err)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, gen.Complete(12), Spec{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunTimeout(t *testing.T) {
	g := testGraph(t)
	_, err := Run(context.Background(), g, Spec{Timeout: time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// testGraph builds an R-MAT graph large enough that a full count
// takes well over the cancellation latencies the tests assert on:
// scale 18 normally (the acceptance target), scale 15 under -short.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	scale := uint(18)
	if testing.Short() {
		scale = 15
	}
	return gen.RMAT(gen.DefaultRMAT(scale, 16, 42))
}

// TestRunCancellationPromptAndLeakFree is the acceptance check for
// the cancellable pipeline: cancelling mid-count on a large R-MAT
// graph must return context.Canceled within 500ms of the cancel call,
// and no goroutine may outlive the run.
func TestRunCancellationPromptAndLeakFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"lotus", Spec{Algorithm: "lotus"}},
		{"lotus-p2", Spec{Algorithm: "lotus", Params: Params{Shards: 2}}},
		{"forward", Spec{Algorithm: "forward"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t)
			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type outcome struct {
				rep *Report
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				rep, err := Run(ctx, g, tc.spec)
				done <- outcome{rep, err}
			}()

			// Let the count get into its stride, then pull the plug.
			time.Sleep(30 * time.Millisecond)
			cancelled := time.Now()
			cancel()
			select {
			case out := <-done:
				latency := time.Since(cancelled)
				if !errors.Is(out.err, context.Canceled) {
					t.Fatalf("want context.Canceled, got rep=%v err=%v", out.rep, out.err)
				}
				if out.rep != nil {
					t.Fatal("cancelled run must not return a partial report")
				}
				if latency > 500*time.Millisecond {
					t.Fatalf("cancellation took %v, want < 500ms", latency)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled run did not return within 10s")
			}

			// The pool watcher and all workers must be gone. Goroutine
			// teardown is asynchronous, so poll briefly.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if runtime.NumGoroutine() <= before {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak: %d before, %d after cancellation",
						before, runtime.NumGoroutine())
				}
				runtime.Gosched()
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestRunCompletesWithGenerousDeadline guards the other side of the
// timeout contract: a deadline that never fires must not perturb the
// result.
func TestRunCompletesWithGenerousDeadline(t *testing.T) {
	g := gen.Complete(12)
	rep, err := Run(context.Background(), g, Spec{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triangles != k12Triangles {
		t.Fatalf("triangles = %d, want %d", rep.Triangles, k12Triangles)
	}
}
