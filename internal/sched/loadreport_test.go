package sched

import (
	"sync/atomic"
	"testing"
)

func TestForTimedCountsClaims(t *testing.T) {
	p := NewPool(2)
	rep := p.ForTimed(8, 1, func(w, s, e int) {})
	if rep.Claims != 8 {
		t.Fatalf("Claims = %d, want 8 (one per unit chunk)", rep.Claims)
	}
	if rep.Steals != 0 {
		t.Fatalf("shared-counter scheduler reported %d steals", rep.Steals)
	}
}

func TestRunTasksCountsClaims(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers)
		var ran atomic.Int64
		rep := p.RunTasks(17, func(w, task int) { ran.Add(1) })
		if rep.Claims != 17 || ran.Load() != 17 {
			t.Fatalf("workers=%d: Claims = %d, ran = %d, want 17", workers, rep.Claims, ran.Load())
		}
	}
}

// TestStealingPoolLoadReport: every task is claimed exactly once
// (steals move a claim between workers, they never duplicate it), and
// a single worker never steals.
func TestStealingPoolLoadReport(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers).Stealing()
		var ran atomic.Int64
		rep := p.RunTasks(200, func(w, task int) { ran.Add(1) })
		if ran.Load() != 200 {
			t.Fatalf("workers=%d: ran %d tasks, want 200", workers, ran.Load())
		}
		if rep.Claims != 200 {
			t.Fatalf("workers=%d: Claims = %d, want 200", workers, rep.Claims)
		}
		if rep.Steals > rep.Claims {
			t.Fatalf("workers=%d: Steals %d > Claims %d", workers, rep.Steals, rep.Claims)
		}
		if workers == 1 && rep.Steals != 0 {
			t.Fatalf("single worker stole %d tasks", rep.Steals)
		}
	}
}
