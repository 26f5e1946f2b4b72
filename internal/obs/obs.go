// Package obs is the observability layer: named atomic counters and
// phase timers collected during a run, a machine-readable run-report
// schema (report.go), and an optional debug HTTP server exposing
// net/http/pprof and expvar (debug.go).
//
// The design premise is that the paper's whole argument is
// quantitative (§3.4 hub coverage, Fig 6 phase breakdown), so every
// perf claim a future PR makes must be backed by counters that are
// trustworthy and cheap enough to leave compiled in:
//
//   - A nil *Metrics is valid and every method on it is a no-op, so
//     call sites need no branching and a disabled run pays only a
//     predictable nil check per bulk add.
//   - Kernels accumulate counts in worker-local variables and publish
//     them in bulk at region boundaries — never per-element atomics on
//     the hot path. The counters themselves are atomic so concurrent
//     regions (parallel phases, the debug server) read consistently.
//
// Metric names are flat dotted strings ("phase1.h2h_probes"); the
// canonical set recorded by the engine, scheduler, kernels and
// baselines is documented in DESIGN.md ("Observability").
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a set of named atomic counters. The zero value is NOT
// usable; construct with New. A nil *Metrics is valid and inert,
// which is how metrics collection is disabled.
type Metrics struct {
	mu   sync.RWMutex
	vals map[string]*atomic.Int64
}

// New returns an empty metrics set.
func New() *Metrics {
	return &Metrics{vals: map[string]*atomic.Int64{}}
}

// counter returns the counter for name, creating it on first use.
func (m *Metrics) counter(name string) *atomic.Int64 {
	m.mu.RLock()
	c := m.vals[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.vals[name]; c == nil {
		c = &atomic.Int64{}
		m.vals[name] = c
	}
	return c
}

// Add adds delta to the named counter. No-op on a nil receiver.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.counter(name).Add(delta)
}

// Set stores value in the named counter, replacing its current value.
// No-op on a nil receiver.
func (m *Metrics) Set(name string, value int64) {
	if m == nil {
		return
	}
	m.counter(name).Store(value)
}

// AddDuration adds d (in nanoseconds) to the named counter; the
// convention is that duration counters end in ".ns".
func (m *Metrics) AddDuration(name string, d time.Duration) {
	m.Add(name, d.Nanoseconds())
}

// Get returns the named counter's value, zero when absent or when the
// receiver is nil.
func (m *Metrics) Get(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	c := m.vals[name]
	m.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Snapshot returns a point-in-time copy of every counter. It returns
// nil on a nil receiver, so an un-instrumented run serializes as an
// absent "metrics" field rather than an empty object.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int64, len(m.vals))
	for n, c := range m.vals {
		out[n] = c.Load()
	}
	return out
}
