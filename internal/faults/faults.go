// Package faults provides deliberate fault injection and the fault
// handling primitives the serving layer builds its robustness story
// on. Distributed triangle-counting systems treat fault tolerance as
// a first-class engineering concern next to raw speed; this package
// gives the repo a way to exercise failure paths on purpose instead
// of waiting for production to find them.
//
// The model is a registry of named fault points. Production code
// marks each interesting failure site with
//
//	if err := faults.Inject("wal.fsync"); err != nil { ... }
//
// which is a single atomic load when nothing is armed. Tests, the
// -faults flag and the /debug/faults endpoint arm points with a
// Policy — fail with probability p, fail the first n eligible calls,
// add latency, return transient or permanent errors — and the
// production error-handling paths (retries, degradation, typed HTTP
// errors) get driven for real.
//
// The package also owns the transient-vs-permanent error taxonomy
// (IsTransient) and the bounded exponential-backoff Retry helper in
// retry.go, so injection and handling agree on one classification.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is what an armed fault point does when it fires.
type Kind string

const (
	// KindError makes Inject return an *InjectedError.
	KindError Kind = "error"
	// KindLatency makes Inject sleep for Policy.Latency, then succeed.
	KindLatency Kind = "latency"
)

// Policy describes when and how an armed fault point fires.
type Policy struct {
	// Kind selects error injection or added latency (default error).
	Kind Kind `json:"kind"`
	// Prob is the firing probability per eligible evaluation; 0 means
	// always fire (the common test configuration).
	Prob float64 `json:"prob,omitempty"`
	// Count caps the total number of fires; 0 = unlimited.
	Count int64 `json:"count,omitempty"`
	// After skips the first N evaluations before the point becomes
	// eligible (fail the third fsync, not the first).
	After int64 `json:"after,omitempty"`
	// Latency is the injected delay for KindLatency.
	Latency time.Duration `json:"latency,omitempty"`
	// Permanent marks injected errors non-retryable; the default is
	// transient, which exercises the retry paths.
	Permanent bool `json:"permanent,omitempty"`
	// Seed makes probabilistic firing reproducible (0 = fixed default).
	Seed int64 `json:"seed,omitempty"`
}

// InjectedError is the typed error returned by a fired fault point.
// It classifies itself as transient or permanent so the production
// retry/degradation paths treat injected faults exactly like real
// ones.
type InjectedError struct {
	Point     string
	Permanent bool
}

func (e *InjectedError) Error() string {
	class := "transient"
	if e.Permanent {
		class = "permanent"
	}
	return fmt.Sprintf("faults: injected %s fault at %q", class, e.Point)
}

// Transient reports whether retrying could help; see IsTransient.
func (e *InjectedError) Transient() bool { return !e.Permanent }

// IsTransient classifies an error for the retry paths: anything
// implementing `Transient() bool` answers for itself (InjectedError
// does); everything else — real I/O errors, validation errors,
// context expiry — is permanent by default, because blind retries of
// unknown failures are how outages get longer.
func IsTransient(err error) bool {
	for e := err; e != nil; e = unwrap(e) {
		if t, ok := e.(interface{ Transient() bool }); ok {
			return t.Transient()
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// point is one named fault site with its armed policy and counters.
type point struct {
	name  string
	mu    sync.Mutex
	armed *Policy
	rng   *rand.Rand
	evals atomic.Int64 // Inject evaluations while armed
	fires atomic.Int64 // faults actually fired
}

// Registry holds fault points. The package-level functions operate on
// Default; independent registries exist for tests that must not share
// global state.
type Registry struct {
	mu       sync.Mutex
	points   map[string]*point
	numArmed atomic.Int64 // fast-path gate: 0 => Inject is a no-op
}

// Default is the process-wide registry used by the package-level
// functions and, through them, every production fault point.
var Default = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{points: map[string]*point{}}
}

// Register ensures a named point exists (idempotent). Production
// packages register their points at init so Points() can enumerate
// the full catalog before anything is armed.
func (r *Registry) Register(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.points[name]; !ok {
		r.points[name] = &point{name: name}
	}
}

func (r *Registry) get(name string) *point {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.points[name]
	if !ok {
		p = &point{name: name}
		r.points[name] = p
	}
	return p
}

// Arm attaches a policy to a point (registering it if needed). A
// second Arm replaces the first and resets the point's counters.
func (r *Registry) Arm(name string, pol Policy) error {
	if pol.Kind == "" {
		pol.Kind = KindError
	}
	switch pol.Kind {
	case KindError, KindLatency:
	default:
		return fmt.Errorf("faults: unknown kind %q (want error or latency)", pol.Kind)
	}
	if pol.Prob < 0 || pol.Prob > 1 {
		return fmt.Errorf("faults: probability %g out of [0, 1]", pol.Prob)
	}
	if pol.Kind == KindLatency && pol.Latency <= 0 {
		return fmt.Errorf("faults: latency policy needs a positive duration")
	}
	seed := pol.Seed
	if seed == 0 {
		seed = 1
	}
	p := r.get(name)
	p.mu.Lock()
	if p.armed == nil {
		r.numArmed.Add(1)
	}
	p.armed = &pol
	p.rng = rand.New(rand.NewSource(seed))
	p.evals.Store(0)
	p.fires.Store(0)
	p.mu.Unlock()
	return nil
}

// Disarm removes a point's policy; the point stays registered.
func (r *Registry) Disarm(name string) {
	r.mu.Lock()
	p, ok := r.points[name]
	r.mu.Unlock()
	if !ok {
		return
	}
	p.mu.Lock()
	if p.armed != nil {
		p.armed = nil
		r.numArmed.Add(-1)
	}
	p.mu.Unlock()
}

// Reset disarms every point and clears counters; registrations stay.
func (r *Registry) Reset() {
	r.mu.Lock()
	pts := make([]*point, 0, len(r.points))
	for _, p := range r.points {
		pts = append(pts, p)
	}
	r.mu.Unlock()
	for _, p := range pts {
		p.mu.Lock()
		if p.armed != nil {
			p.armed = nil
			r.numArmed.Add(-1)
		}
		p.evals.Store(0)
		p.fires.Store(0)
		p.mu.Unlock()
	}
}

// Inject evaluates the named point. It returns nil when the point is
// unarmed (the fast path: one atomic load for the whole registry),
// sleeps for latency policies, and returns an *InjectedError for
// error policies that fire.
func (r *Registry) Inject(name string) error {
	if r.numArmed.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	p, ok := r.points[name]
	r.mu.Unlock()
	if !ok {
		return nil
	}
	p.mu.Lock()
	pol := p.armed
	if pol == nil {
		p.mu.Unlock()
		return nil
	}
	eval := p.evals.Add(1)
	if eval <= pol.After {
		p.mu.Unlock()
		return nil
	}
	if pol.Count > 0 && p.fires.Load() >= pol.Count {
		p.mu.Unlock()
		return nil
	}
	if pol.Prob > 0 && pol.Prob < 1 && p.rng.Float64() >= pol.Prob {
		p.mu.Unlock()
		return nil
	}
	p.fires.Add(1)
	lat := time.Duration(0)
	if pol.Kind == KindLatency {
		lat = pol.Latency
	}
	perm := pol.Permanent
	p.mu.Unlock()

	if lat > 0 {
		time.Sleep(lat)
		return nil
	}
	return &InjectedError{Point: name, Permanent: perm}
}

// PointStatus is the observable state of one fault point.
type PointStatus struct {
	Name  string  `json:"name"`
	Armed *Policy `json:"armed,omitempty"`
	Evals int64   `json:"evals"`
	Fires int64   `json:"fires"`
}

// Points lists every registered point, sorted by name.
func (r *Registry) Points() []PointStatus {
	r.mu.Lock()
	pts := make([]*point, 0, len(r.points))
	for _, p := range r.points {
		pts = append(pts, p)
	}
	r.mu.Unlock()
	out := make([]PointStatus, 0, len(pts))
	for _, p := range pts {
		p.mu.Lock()
		st := PointStatus{Name: p.name, Evals: p.evals.Load(), Fires: p.fires.Load()}
		if p.armed != nil {
			cp := *p.armed
			st.Armed = &cp
		}
		p.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Configure arms points from a flag-style spec:
//
//	point:kind[:key=val,...][;point:kind...]
//
// e.g. "wal.fsync:error:p=0.5,count=3;serve.build:latency:d=50ms".
// Keys: p (probability), count, after, d (latency duration), seed,
// and the bare flag perm (permanent error).
func (r *Registry) Configure(spec string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, ":", 3)
		if len(parts) < 2 {
			return fmt.Errorf("faults: entry %q: want point:kind[:params]", entry)
		}
		pol := Policy{Kind: Kind(parts[1])}
		if len(parts) == 3 {
			for _, kv := range strings.Split(parts[2], ",") {
				kv = strings.TrimSpace(kv)
				if kv == "" {
					continue
				}
				key, val, hasVal := strings.Cut(kv, "=")
				var err error
				switch key {
				case "perm":
					pol.Permanent = true
				case "p":
					pol.Prob, err = strconv.ParseFloat(val, 64)
				case "count":
					pol.Count, err = strconv.ParseInt(val, 10, 64)
				case "after":
					pol.After, err = strconv.ParseInt(val, 10, 64)
				case "seed":
					pol.Seed, err = strconv.ParseInt(val, 10, 64)
				case "d":
					pol.Latency, err = time.ParseDuration(val)
				default:
					return fmt.Errorf("faults: entry %q: unknown param %q", entry, key)
				}
				if err != nil {
					return fmt.Errorf("faults: entry %q: param %q: %v", entry, kv, err)
				}
				if !hasVal && key != "perm" {
					return fmt.Errorf("faults: entry %q: param %q needs a value", entry, key)
				}
			}
		}
		if err := r.Arm(parts[0], pol); err != nil {
			return fmt.Errorf("faults: entry %q: %v", entry, err)
		}
	}
	return nil
}

// Package-level wrappers over Default.

// Register ensures a point exists in the default registry.
func Register(name string) { Default.Register(name) }

// Inject evaluates a point in the default registry.
func Inject(name string) error { return Default.Inject(name) }

// Arm attaches a policy in the default registry.
func Arm(name string, pol Policy) error { return Default.Arm(name, pol) }

// Disarm removes a policy in the default registry.
func Disarm(name string) { Default.Disarm(name) }

// Reset disarms everything in the default registry.
func Reset() { Default.Reset() }

// Points lists the default registry's points.
func Points() []PointStatus { return Default.Points() }

// Configure arms default-registry points from a flag spec.
func Configure(spec string) error { return Default.Configure(spec) }
