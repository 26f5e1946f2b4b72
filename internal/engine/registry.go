// Package engine is the execution layer between the public lotustc
// facade and the algorithm kernels. It owns the pieces every counting
// path shares so kernels stay pure:
//
//   - an algorithm registry: every LOTUS variant and baseline
//     self-registers a named kernel with capability metadata, and the
//     CLIs, the facade and the tests resolve algorithms through it
//     instead of hard-coded switches;
//   - a pipeline runner (Run) that validates inputs, binds the run to
//     a context (deadline/timeout + cooperative cancellation through
//     the scheduler), times the run, converts kernel panics to
//     errors, and returns a structured per-phase Report.
//
// Adding an algorithm is one self-registering entry in algorithms.go
// (or a Register call from any package): no switch to extend, and the
// CLIs pick the new name up automatically.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Capabilities describe what a registered algorithm supports; the
// engine and the CLIs use them for validation and display.
type Capabilities struct {
	// SupportsWorkers marks parallel kernels that honor Spec.Workers;
	// false means the kernel is inherently sequential (it still
	// observes cancellation through the pool).
	SupportsWorkers bool
	// ReportsPhases marks kernels that populate per-phase Report
	// entries (preprocess/phase1/hnn/nnn). It does not imply the
	// triangle-class split: cover-edge reports phases but no classes
	// (see ReportsClasses).
	ReportsPhases bool
	// ReportsClasses marks kernels that always fill the Report's
	// HHH/HHN/HNN/NNN triangle-class breakdown (the LOTUS-structured
	// kernels). auto does not carry it: it fills the split only when
	// it routes to a kernel that does.
	ReportsClasses bool
	// NeedsSymmetric marks kernels that require a symmetric input
	// graph (all current kernels do; oriented inputs are rejected by
	// Run before the kernel sees them).
	NeedsSymmetric bool
	// Cancellable marks kernels that observe cooperative cancellation
	// (context deadline/cancel stops them at the next poll point; all
	// built-ins do).
	Cancellable bool
	// Shardable marks kernels that count over a block-partitioned
	// grid of per-shard structures and honor Params.Shards.
	Shardable bool
	// Streaming marks kernels whose structure family backs the
	// incremental /v1/stream sessions (streaming hub TC builds on the
	// flat LOTUS structures).
	Streaming bool
}

// Kernel executes one triangle counting algorithm against the task's
// graph and returns the total. Kernels must route parallel work
// through task.Pool (which carries the run's cancellation binding)
// and may record phase timings and class counts on task.Report.
type Kernel func(task *Task) (uint64, error)

// Registration is one registry entry.
type Registration struct {
	Name   string
	Caps   Capabilities
	Kernel Kernel
}

var registry = struct {
	sync.RWMutex
	byName map[string]Registration
	order  []string
}{byName: map[string]Registration{}}

// Register adds an algorithm under name. It fails on an empty name, a
// nil kernel, or a duplicate registration — algorithm names are a
// flat global namespace shared by every CLI flag and config surface.
func Register(name string, caps Capabilities, k Kernel) error {
	if name == "" {
		return errors.New("engine: empty algorithm name")
	}
	if k == nil {
		return fmt.Errorf("engine: nil kernel for algorithm %q", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		return fmt.Errorf("engine: algorithm %q already registered", name)
	}
	registry.byName[name] = Registration{Name: name, Caps: caps, Kernel: k}
	registry.order = append(registry.order, name)
	return nil
}

// MustRegister is Register that panics on error, for init-time
// self-registration.
func MustRegister(name string, caps Capabilities, k Kernel) {
	if err := Register(name, caps, k); err != nil {
		panic(err)
	}
}

// Lookup resolves an algorithm by name.
func Lookup(name string) (Registration, error) {
	registry.RLock()
	defer registry.RUnlock()
	r, ok := registry.byName[name]
	if !ok {
		return Registration{}, fmt.Errorf("engine: unknown algorithm %q (available: %s)",
			name, strings.Join(registry.order, ", "))
	}
	return r, nil
}

// Algorithms returns every registered algorithm name in registration
// order (the built-in order matches the paper's presentation: LOTUS
// variants first, then the §5.1.4 comparators, then the §6.1
// classics).
func Algorithms() []string {
	registry.RLock()
	defer registry.RUnlock()
	return slices.Clone(registry.order)
}

// Registrations returns every registry entry (name, capabilities,
// kernel) in registration order, for surfaces that list algorithms
// together with their capability tags.
func Registrations() []Registration {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Registration, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}
