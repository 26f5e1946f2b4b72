package core

// Regression tests for the serving-path hardening: the Try* entry
// points return errors a resident service can classify, and the
// streaming counters stay consistent under concurrent polling.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lotustc/internal/gen"
)

func TestTryPreprocessReturnsErrOriented(t *testing.T) {
	og := gen.Complete(6).Orient()
	for name, try := range map[string]func() error{
		"TryPreprocess": func() error { _, err := TryPreprocess(og, Options{HubCount: 2}); return err },
		"NewPlan":       func() error { _, err := NewPlan(og, Options{HubCount: 2}); return err },
		"BuildShard": func() error {
			pl, err := NewPlan(gen.Complete(6), Options{HubCount: 2})
			if err != nil {
				return err
			}
			_, err = pl.BuildShard(og, 0, nil, nil)
			return err
		},
	} {
		err := try()
		if err == nil {
			t.Fatalf("%s accepted an oriented graph", name)
		}
		if !errors.Is(err, ErrOriented) {
			t.Fatalf("%s: error %v is not ErrOriented", name, err)
		}
	}
}

func TestTryPreprocessReturnsErrNilGraph(t *testing.T) {
	if _, err := TryPreprocess(nil, Options{}); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("TryPreprocess(nil): got %v, want ErrNilGraph", err)
	}
	pl, err := NewPlan(gen.Complete(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.BuildShard(nil, 0, nil, nil); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("BuildShard(nil): got %v, want ErrNilGraph", err)
	}
}

// TestStreamingHubValidation is the satellite-2 regression: before
// validation, a hub ID >= n corrupted hubIdx indexing (panic on first
// AddEdge) and a duplicate hub silently double-counted. Both must be
// errors at construction.
func TestStreamingHubValidation(t *testing.T) {
	if _, err := NewStreaming(10, []uint32{3, 10}); err == nil {
		t.Fatal("hub ID == n accepted")
	}
	if _, err := NewStreaming(10, []uint32{3, 999}); err == nil {
		t.Fatal("hub ID far out of range accepted")
	}
	if _, err := NewStreaming(10, []uint32{3, 7, 3}); err == nil {
		t.Fatal("duplicate hub ID accepted")
	}
	if _, err := NewStreaming(-1, nil); err == nil {
		t.Fatal("negative vertex count accepted")
	}
	sc, err := NewStreaming(10, []uint32{0, 9, 5})
	if err != nil {
		t.Fatalf("valid hub set rejected: %v", err)
	}
	if sc.NumHubs() != 3 || sc.NumVertices() != 10 {
		t.Fatalf("got %d hubs over %d vertices, want 3 over 10", sc.NumHubs(), sc.NumVertices())
	}
}

// TestStreamingConcurrentPolling exercises the satellite-3 fix under
// the race detector: one writer ingests a clique edge-by-edge while
// pollers continuously read Classes, HubTriangles and Edges. Before
// the counters became atomics this was a data race (torn reads and a
// -race failure); now pollers must always observe a consistent,
// monotonically growing total.
func TestStreamingConcurrentPolling(t *testing.T) {
	const n = 24
	g := gen.Complete(n)
	hubs := make([]uint32, n/2)
	for i := range hubs {
		hubs[i] = uint32(i)
	}
	sc, err := NewStreaming(n, hubs)
	if err != nil {
		t.Fatal(err)
	}
	sc.CountNonHub = true

	var done atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastTotal uint64
			for !done.Load() {
				hhh, hhn, hnn, nnn := sc.Classes()
				total := hhh + hhn + hnn + nnn
				if total < lastTotal {
					t.Errorf("total went backwards: %d after %d", total, lastTotal)
					return
				}
				lastTotal = total
				_ = sc.HubTriangles()
				_ = sc.Edges()
			}
		}()
	}
	for _, e := range g.Edges() {
		sc.AddEdge(e.U, e.V)
	}
	done.Store(true)
	wg.Wait()

	hhh, hhn, hnn, nnn := sc.Classes()
	want := uint64(n * (n - 1) * (n - 2) / 6)
	if got := hhh + hhn + hnn + nnn; got != want {
		t.Fatalf("K%d: got %d triangles, want %d", n, got, want)
	}
	if sc.Edges() != uint64(n*(n-1)/2) {
		t.Fatalf("edge counter: got %d, want %d", sc.Edges(), n*(n-1)/2)
	}
}

// TestStreamingOutOfRangeEndpointsIgnored: endpoints beyond the
// vertex universe are dropped by ingest instead of panicking — the
// second half of the satellite-2 hardening.
func TestStreamingOutOfRangeEndpointsIgnored(t *testing.T) {
	sc, err := NewStreaming(4, []uint32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sc.CountNonHub = true
	if got := sc.AddEdge(0, 99); got != 0 {
		t.Fatalf("out-of-range AddEdge created %d triangles", got)
	}
	if got := sc.RemoveEdge(99, 0); got != 0 {
		t.Fatalf("out-of-range RemoveEdge destroyed %d triangles", got)
	}
	if sc.Edges() != 0 {
		t.Fatalf("edge counter moved to %d on ignored edges", sc.Edges())
	}
	// The universe still works normally afterwards.
	sc.AddEdge(0, 1)
	sc.AddEdge(1, 2)
	sc.AddEdge(0, 2)
	if got := sc.HubTriangles(); got != 1 {
		t.Fatalf("got %d hub triangles after forming one, want 1", got)
	}
}
