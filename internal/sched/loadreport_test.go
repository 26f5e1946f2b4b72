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
