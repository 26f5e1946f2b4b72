package sched

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestStealingRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			p := NewPool(workers).Stealing()
			seen := make([]int32, n)
			p.RunTasks(n, func(w, task int) {
				atomic.AddInt32(&seen[task], 1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestStealingWithUnevenWork(t *testing.T) {
	p := NewPool(4).Stealing()
	const n = 200
	var total atomic.Int64
	rng := rand.New(rand.NewSource(1))
	costs := make([]int, n)
	for i := range costs {
		costs[i] = rng.Intn(50)
	}
	p.RunTasks(n, func(w, task int) {
		// Busy loop proportional to cost so deques drain unevenly
		// and stealing actually happens.
		x := 0
		for i := 0; i < costs[task]*1000; i++ {
			x += i
		}
		_ = x
		total.Add(1)
	})
	if total.Load() != n {
		t.Fatalf("ran %d tasks", total.Load())
	}
}

func TestStealingStress(t *testing.T) {
	// Hammer the deques with many tiny tasks across repeats to shake
	// out lost/duplicated claims under contention.
	p := NewPool(8).Stealing()
	for round := 0; round < 20; round++ {
		const n = 5000
		var sum atomic.Int64
		p.RunTasks(n, func(w, task int) { sum.Add(int64(task)) })
		want := int64(n) * (n - 1) / 2
		if sum.Load() != want {
			t.Fatalf("round %d: task sum %d, want %d", round, sum.Load(), want)
		}
	}
}

func TestDequeSemantics(t *testing.T) {
	d := newDeque(4)
	d.push(1)
	d.push(2)
	d.push(3)
	if v, ok := d.steal(); !ok || v != 1 {
		t.Fatalf("steal = %d/%v, want 1", v, ok)
	}
	if v, ok := d.pop(); !ok || v != 3 {
		t.Fatalf("pop = %d/%v, want 3", v, ok)
	}
	if v, ok := d.pop(); !ok || v != 2 {
		t.Fatalf("pop = %d/%v, want 2", v, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal from empty succeeded")
	}
}

func TestStealingMatchesPoolResults(t *testing.T) {
	// Both schedulers must produce identical aggregate results for a
	// commutative reduction.
	n := 1234
	var a, b atomic.Int64
	NewPool(4).RunTasks(n, func(w, task int) { a.Add(int64(task * task)) })
	NewPool(4).Stealing().RunTasks(n, func(w, task int) { b.Add(int64(task * task)) })
	if a.Load() != b.Load() {
		t.Fatalf("pool %d != stealing %d", a.Load(), b.Load())
	}
}

func TestStealingTerminates(t *testing.T) {
	done := make(chan struct{})
	go func() {
		NewPool(4).Stealing().RunTasks(10000, func(w, task int) {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stealing pool did not terminate")
	}
}
