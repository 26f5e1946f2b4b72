package sched

import (
	"sync"
	"sync/atomic"
	"time"
)

// The paper's runtime (§5.1.3) uses a master/worker model with work
// stealing. Pool.For approximates stealing with a shared claim
// counter; StealingPool implements the real thing — per-worker
// Chase-Lev-style deques with lock-free owner access and stealing
// from victims — so the two strategies can be compared and either
// can back the counting phases.

// deque is a single-owner, multi-thief work-stealing deque of task
// indices (bounded, sized up front: LOTUS tile sets are known before
// the parallel region starts).
type deque struct {
	tasks  []int32
	bottom atomic.Int64 // next push/pop slot (owner end)
	top    atomic.Int64 // next steal slot (thief end)
}

func newDeque(capacity int) *deque {
	return &deque{tasks: make([]int32, capacity)}
}

// push appends a task at the owner end. Only the owner calls it, and
// only before workers start in this implementation, so it needs no
// synchronization beyond the atomic store.
func (d *deque) push(task int32) {
	b := d.bottom.Load()
	d.tasks[b] = task
	d.bottom.Store(b + 1)
}

// pop takes a task from the owner end; ok is false when empty.
func (d *deque) pop() (int32, bool) {
	b := d.bottom.Add(-1)
	t := d.top.Load()
	switch {
	case b > t:
		return d.tasks[b], true
	case b == t:
		// Last element: race with thieves via CAS on top.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if won {
			return d.tasks[b], true
		}
		return 0, false
	default:
		d.bottom.Store(t)
		return 0, false
	}
}

// steal takes a task from the thief end; ok is false when empty or
// when the steal lost a race.
func (d *deque) steal() (int32, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false
	}
	task := d.tasks[t]
	if d.top.CompareAndSwap(t, t+1) {
		return task, true
	}
	return 0, false
}

// StealingPool executes task sets with per-worker deques and work
// stealing.
type StealingPool struct {
	workers int
	// stop mirrors Pool's cancellation flag when the stealing pool is
	// derived from a bound pool (Pool.Stealing); nil otherwise.
	stop *atomic.Bool
}

// Stealing returns a work-stealing pool with the same worker count as
// p that inherits p's cancellation binding: once p's bound context is
// done, the stealing workers stop popping and stealing tasks.
func (p *Pool) Stealing() *StealingPool {
	return &StealingPool{workers: p.workers, stop: p.stop}
}

// cancelled reports whether the inherited context is done.
func (p *StealingPool) cancelled() bool {
	return p.stop != nil && p.stop.Load()
}

// Workers returns the worker count.
func (p *StealingPool) Workers() int { return p.workers }

// RunTasks executes fn(worker, task) for every task in [0, nTasks).
// Tasks are dealt round-robin to the workers' deques; each worker
// drains its own deque from the bottom and steals from others when
// empty. Every task runs exactly once. The returned LoadReport
// carries per-worker busy times, as for Pool.RunTasks.
func (p *StealingPool) RunTasks(nTasks int, fn func(worker, task int)) LoadReport {
	busy := make([]time.Duration, p.workers)
	t0 := time.Now()
	if nTasks <= 0 {
		return LoadReport{Busy: busy, Wall: time.Since(t0)}
	}
	if p.workers == 1 {
		s := time.Now()
		var claims int64
		for i := 0; i < nTasks; i++ {
			if p.cancelled() {
				break
			}
			claims++
			fn(0, i)
		}
		busy[0] = time.Since(s)
		return LoadReport{Busy: busy, Wall: time.Since(t0), Claims: claims}
	}
	deques := make([]*deque, p.workers)
	per := (nTasks + p.workers - 1) / p.workers
	for w := range deques {
		deques[w] = newDeque(per)
	}
	for i := 0; i < nTasks; i++ {
		deques[i%p.workers].push(int32(i))
	}
	claims := make([]int64, p.workers)
	steals := make([]int64, p.workers)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			own := deques[worker]
			run := func(task int32) {
				claims[worker]++
				s := time.Now()
				fn(worker, int(task))
				busy[worker] += time.Since(s)
			}
			for {
				if p.cancelled() {
					return
				}
				if task, ok := own.pop(); ok {
					run(task)
					continue
				}
				// Own deque empty: sweep victims once; exit when
				// nothing is stealable anywhere.
				stole := false
				for off := 1; off < p.workers; off++ {
					victim := deques[(worker+off)%p.workers]
					if task, ok := victim.steal(); ok {
						steals[worker]++
						run(task)
						stole = true
						break
					}
				}
				if !stole {
					// Re-check every deque for stragglers published
					// after our sweep; if all empty, we are done.
					done := true
					for _, d := range deques {
						if d.top.Load() < d.bottom.Load() {
							done = false
							break
						}
					}
					if done {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	rep := LoadReport{Busy: busy, Wall: time.Since(t0)}
	for w := 0; w < p.workers; w++ {
		rep.Claims += claims[w]
		rep.Steals += steals[w]
	}
	return rep
}
