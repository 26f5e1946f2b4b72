// Package sched provides the parallel execution substrate for the
// LOTUS reproduction: a dynamic self-scheduling parallel-for (the
// goroutine equivalent of the paper's work-stealing master/worker
// runtime, §5.1.3), padded per-worker accumulators, and per-worker
// busy-time measurement used for the Table 9 idle-time experiment.
//
// Pools support cooperative cancellation: Bind attaches a context,
// after which every parallel region stops claiming work once the
// context is done, and long-running kernels can poll Cancelled() on
// their inner loops. Cancellation never interrupts a chunk midway by
// force — the contract is purely cooperative, so partial results of a
// cancelled region are unspecified and must be discarded by the
// caller (the engine does this).
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool executes parallel loops on a fixed number of workers.
type Pool struct {
	workers int
	// Cancellation state, set by Bind. ctx is the bound context; stop
	// flips to true when it is done (a single watcher goroutine owns
	// the transition). Both are nil on an unbound pool, keeping the
	// hot-path check to one predictable nil comparison.
	ctx     context.Context
	stop    *atomic.Bool
	unwatch chan struct{}
}

// NewPool returns a pool with the given worker count; n <= 0 selects
// runtime.GOMAXPROCS(0).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Bind returns a pool with the same worker count whose parallel
// regions observe ctx: once ctx is done, workers stop claiming chunks
// and Cancelled reports true. The receiver is not modified. Callers
// must Release the bound pool when the run ends to stop the context
// watcher; contexts that can never be cancelled bind for free.
func (p *Pool) Bind(ctx context.Context) *Pool {
	q := &Pool{workers: p.workers, ctx: ctx}
	if done := ctx.Done(); done != nil {
		q.stop = &atomic.Bool{}
		q.unwatch = make(chan struct{})
		go func(stop *atomic.Bool, unwatch chan struct{}) {
			select {
			case <-done:
				stop.Store(true)
			case <-unwatch:
			}
		}(q.stop, q.unwatch)
	}
	return q
}

// Release stops the context watcher started by Bind. It is a no-op on
// unbound pools and safe to call once per Bind.
func (p *Pool) Release() {
	if p.unwatch != nil {
		close(p.unwatch)
		p.unwatch = nil
	}
}

// Cancelled reports whether the bound context is done. It is cheap
// enough for per-vertex polling on counting hot loops: a nil check on
// unbound pools, one atomic load on bound ones.
func (p *Pool) Cancelled() bool {
	return p.stop != nil && p.stop.Load()
}

// Err returns the bound context's error once cancellation has been
// observed, nil otherwise.
func (p *Pool) Err() error {
	if p.Cancelled() {
		return p.ctx.Err()
	}
	return nil
}

// For runs fn(worker, start, end) over disjoint chunks covering
// [0, n). Chunks of size grain are claimed from a shared atomic
// counter, so uneven iteration costs self-balance exactly like work
// stealing: fast workers simply claim more chunks. grain <= 0 picks a
// default that yields ~64 chunks per worker.
func (p *Pool) For(n, grain int, fn func(worker, start, end int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = n / (p.workers * 64)
		if grain < 1 {
			grain = 1
		}
	}
	if p.workers == 1 {
		if p.stop == nil {
			fn(0, 0, n)
			return
		}
		// Bound single-worker pools chunk the range so cancellation
		// still lands at chunk boundaries.
		for start := 0; start < n; start += grain {
			if p.stop.Load() {
				return
			}
			end := start + grain
			if end > n {
				end = n
			}
			fn(0, start, end)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if p.stop != nil && p.stop.Load() {
					return
				}
				start := int(next.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				fn(worker, start, end)
			}
		}(w)
	}
	wg.Wait()
}

// ForTimed is For, but additionally measures each worker's busy time
// (time spent inside fn) and the loop's wall-clock time. The Table 9
// experiment derives idle percentage from these; Claims counts the
// chunk claims, each of which is also a cancellation poll point.
func (p *Pool) ForTimed(n, grain int, fn func(worker, start, end int)) LoadReport {
	busy := make([]time.Duration, p.workers)
	claims := make([]int64, p.workers)
	t0 := time.Now()
	p.For(n, grain, func(worker, start, end int) {
		s := time.Now()
		fn(worker, start, end)
		busy[worker] += time.Since(s)
		claims[worker]++
	})
	rep := LoadReport{Busy: busy, Wall: time.Since(t0)}
	for _, c := range claims {
		rep.Claims += c
	}
	return rep
}

// RunTasks executes nTasks opaque tasks (fn(worker, task)) with
// dynamic self-scheduling, one task per claim. Used for tile queues
// where tasks already embody the desired granularity.
func (p *Pool) RunTasks(nTasks int, fn func(worker, task int)) LoadReport {
	busy := make([]time.Duration, p.workers)
	t0 := time.Now()
	if nTasks <= 0 {
		return LoadReport{Busy: busy, Wall: time.Since(t0)}
	}
	claims := make([]int64, p.workers)
	if p.workers == 1 {
		s := time.Now()
		for i := 0; i < nTasks; i++ {
			if p.stop != nil && p.stop.Load() {
				break
			}
			claims[0]++
			fn(0, i)
		}
		busy[0] = time.Since(s)
		return LoadReport{Busy: busy, Wall: time.Since(t0), Claims: claims[0]}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if p.stop != nil && p.stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= nTasks {
					return
				}
				claims[worker]++
				s := time.Now()
				fn(worker, i)
				busy[worker] += time.Since(s)
			}
		}(w)
	}
	wg.Wait()
	rep := LoadReport{Busy: busy, Wall: time.Since(t0)}
	for _, c := range claims {
		rep.Claims += c
	}
	return rep
}

// LoadReport captures per-worker busy time for one parallel region.
type LoadReport struct {
	Busy []time.Duration
	Wall time.Duration
	// Claims counts chunk/task claims. Every claim re-checks the
	// cancellation flag, so this is also the number of scheduler-level
	// cancellation polls the region performed.
	Claims int64
}

// IdleFraction returns the mean fraction of wall time workers spent
// idle: 1 - sum(busy) / (workers * wall). With a single worker it is
// ~0 by construction; with skewed tiles and many workers it exposes
// load imbalance (Table 9).
func (r LoadReport) IdleFraction() float64 {
	if len(r.Busy) == 0 || r.Wall <= 0 {
		return 0
	}
	var sum time.Duration
	for _, b := range r.Busy {
		sum += b
	}
	if sum == 0 {
		// No work executed: idle time is meaningless, report none.
		return 0
	}
	idle := 1 - float64(sum)/(float64(r.Wall)*float64(len(r.Busy)))
	if idle < 0 {
		return 0
	}
	return idle
}

// MaxBusy returns the longest per-worker busy time — the critical
// path of the region under perfect overlap.
func (r LoadReport) MaxBusy() time.Duration {
	var m time.Duration
	for _, b := range r.Busy {
		if b > m {
			m = b
		}
	}
	return m
}

// ImbalanceRatio returns max(busy)/mean(busy), 1.0 meaning perfectly
// balanced. It is a machine-independent load-balance metric used in
// Table 9 alongside idle time (idle time degenerates on 1 core).
func (r LoadReport) ImbalanceRatio() float64 {
	if len(r.Busy) == 0 {
		return 1
	}
	var sum time.Duration
	for _, b := range r.Busy {
		sum += b
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(r.Busy))
	return float64(r.MaxBusy()) / mean
}

// cacheLinePad separates hot per-worker counters onto distinct
// cachelines to avoid false sharing.
const cacheLinePad = 64

// Accumulator is a set of per-worker uint64 counters, padded to one
// cacheline each, summed after the parallel region. It is how every
// counting phase aggregates triangles without atomics on the hot path.
type Accumulator struct {
	cells []uint64
}

// NewAccumulator returns an accumulator for n workers.
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{cells: make([]uint64, n*(cacheLinePad/8))}
}

// Add adds x to worker w's counter.
func (a *Accumulator) Add(w int, x uint64) {
	a.cells[w*(cacheLinePad/8)] += x
}

// Sum returns the total across workers.
func (a *Accumulator) Sum() uint64 {
	var s uint64
	for i := 0; i < len(a.cells); i += cacheLinePad / 8 {
		s += a.cells[i]
	}
	return s
}
