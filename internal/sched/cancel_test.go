package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestBindBackgroundIsFree(t *testing.T) {
	p := NewPool(2).Bind(context.Background())
	defer p.Release()
	if p.Cancelled() {
		t.Fatal("background-bound pool must not report cancelled")
	}
	if p.Err() != nil {
		t.Fatalf("Err = %v, want nil", p.Err())
	}
	var n atomic.Int64
	p.For(100, 1, func(_, start, end int) { n.Add(int64(end - start)) })
	if n.Load() != 100 {
		t.Fatalf("covered %d iterations, want 100", n.Load())
	}
}

func TestBindObservesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(2).Bind(ctx)
	defer p.Release()
	cancel()
	// The watcher flips the flag asynchronously; yield until it runs.
	for !p.Cancelled() {
		runtime.Gosched()
	}
	if !errors.Is(p.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", p.Err())
	}
}

func TestBindDoesNotMutateReceiver(t *testing.T) {
	base := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	bound := base.Bind(ctx)
	defer bound.Release()
	cancel()
	for !bound.Cancelled() {
		runtime.Gosched()
	}
	if base.Cancelled() {
		t.Fatal("cancelling the bound pool must not affect the base pool")
	}
}

func TestForStopsAtChunkBoundaries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(1).Bind(ctx)
	defer p.Release()
	var covered atomic.Int64
	p.For(1000, 10, func(_, start, end int) {
		if covered.Add(int64(end-start)) >= 100 {
			cancel()
			// The watcher flips the flag asynchronously; wait so the
			// next chunk claim deterministically observes it.
			for !p.Cancelled() {
				runtime.Gosched()
			}
		}
	})
	// Cancellation lands between chunk claims: well short of the full
	// range, but whole chunks only.
	if c := covered.Load(); c >= 1000 || c%10 != 0 {
		t.Fatalf("covered %d iterations; want a whole number of chunks < 1000", c)
	}
	if !errors.Is(p.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", p.Err())
	}
}

func TestRunTasksStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(1).Bind(ctx)
	defer p.Release()
	var done atomic.Int64
	p.RunTasks(1000, func(_, task int) {
		if done.Add(1) == 5 {
			cancel()
			for !p.Cancelled() {
				runtime.Gosched()
			}
		}
	})
	if d := done.Load(); d >= 1000 {
		t.Fatalf("ran %d tasks, want an early stop", d)
	}
}

func TestReleaseIdempotentOnUnbound(t *testing.T) {
	p := NewPool(2)
	p.Release() // no-op on unbound pools
	b := p.Bind(context.Background())
	b.Release()
	b.Release()
}
