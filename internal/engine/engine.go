package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
	"lotustc/internal/shard"
)

// DefaultAlgorithm is used when Spec.Algorithm is empty.
const DefaultAlgorithm = "lotus"

// ErrNilGraph is returned by Run when the input graph is nil.
var ErrNilGraph = errors.New("engine: nil graph")

// ErrNeedsSymmetric is wrapped into the error Run returns when an
// oriented graph is handed to an algorithm whose capabilities demand
// a symmetric one; servers match it with errors.Is to classify the
// failure as the caller's (a 4xx), not the process's.
var ErrNeedsSymmetric = errors.New("requires a symmetric graph")

// ErrPreparedMismatch is wrapped into the error a kernel returns when
// a Params.Prepared structure or Params.PreparedGrid does not match
// the run's graph. A serving layer matches it with errors.Is to tell
// cache corruption (evict the entry and rebuild) apart from a caller
// mistake.
var ErrPreparedMismatch = errors.New("prepared structure does not match the graph")

// Canonical phase names recorded by the LOTUS kernels. Baselines
// record no phases (their preprocessing is fused into the kernel).
const (
	PhasePreprocess = "preprocess"
	PhaseHub        = "phase1" // HHH + HHN against the H2H bit array
	PhaseHNN        = "hnn"
	PhaseNNN        = "nnn"
	// PhaseCount is the single counting phase of kernels that do not
	// split their sweep into the three monolithic phases (the sharded
	// kernel interleaves all classes per block triple).
	PhaseCount = "count"
	// PhaseProbe is the auto kernel's structural probe.
	PhaseProbe = "probe"
)

// Spec selects an algorithm and its tuning for one Run.
type Spec struct {
	// Algorithm is a registry name; empty selects DefaultAlgorithm.
	Algorithm string
	// Workers bounds parallelism; 0 uses GOMAXPROCS.
	Workers int
	// Timeout > 0 bounds the run's wall time on top of whatever
	// deadline the caller's context already carries; exceeding it
	// returns context.DeadlineExceeded.
	Timeout time.Duration
	// CollectMetrics threads an obs.Metrics registry through the run;
	// the kernels publish per-phase counters into it and Run snapshots
	// the result into Report.Metrics. Off by default: kernels see a
	// nil registry, whose methods are no-ops, so the hot paths pay
	// nothing.
	CollectMetrics bool
	// Params carries the algorithm tuning knobs.
	Params Params
}

// Params are the tuning knobs kernels may honor; unknown knobs are
// ignored by kernels that have no use for them.
type Params struct {
	// HubCount overrides the LOTUS hub count (0 = adaptive).
	HubCount int
	// FrontFraction overrides the §4.3.1 relabeling front block.
	FrontFraction float64
	// TileThreshold overrides the squared-edge-tiling degree cutoff.
	TileThreshold int
	// EdgeBalancedTiling switches phase 1 to the edge-balanced
	// partitioner (Table 9's comparison policy).
	EdgeBalancedTiling bool
	// MaxDepth bounds the recursive LOTUS variant (0 = 2 levels).
	MaxDepth int
	// HNNBlocks > 1 enables the §7 blocked HNN phase.
	HNNBlocks int
	// WorkStealing schedules phase-1 tiles on work-stealing deques.
	WorkStealing bool
	// Phase1Kernel selects the H2H probe kernel for phase 1: "" or
	// "auto" (per-row dispatch), "scalar", or "word". Unknown values
	// fail the run up front rather than silently falling back.
	Phase1Kernel string
	// IntersectKernel selects the NNN intersection strategy: "" or
	// "adaptive" (size-ratio dispatch), or "merge". HNN always probes
	// the per-worker hub bitmap.
	IntersectKernel string
	// Prepared supplies an already-built LOTUS structure for the same
	// graph, letting a resident service amortize preprocessing across
	// queries: the "lotus" kernel skips Algorithm 2 and records a
	// zero-length preprocess phase. The structure must have been built
	// from the run's graph — the kernel cross-checks the vertex count
	// and returns an error wrapping ErrPreparedMismatch otherwise;
	// kernels that rebuild per level (lotus-recursive) and the
	// baselines ignore it.
	Prepared *core.LotusGraph
	// Shards is the grid dimension p for the "lotus-sharded" kernel
	// (0 = shard.DefaultGrid; 1 = a single block). Other kernels
	// ignore it.
	Shards int
	// PreparedGrid supplies an already-built shard grid for the same
	// graph, the sharded counterpart of Prepared: "lotus-sharded"
	// skips the grid build and records a zero-length preprocess
	// phase. Mismatches (vertex count, or a grid dimension that
	// contradicts a nonzero Shards) wrap ErrPreparedMismatch.
	PreparedGrid *shard.Grid
	// TuneAlgorithm pins the "auto" kernel's routed algorithm for
	// ablation runs (the decision is recorded as overridden); empty
	// lets the tune policy choose. Other kernels ignore it.
	TuneAlgorithm string
	// Scratch supplies reusable per-worker kernel scratch to the
	// "lotus" kernel (see core.CountOptions.Scratch); a resident
	// service pools these across requests so warm counts reuse their
	// phase-1 bitmaps. Never share one instance between concurrent
	// runs. Other kernels ignore it.
	Scratch *core.CountScratch
}

// Phase is one timed stage of a run.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Report is the structured outcome of one engine run. Phases appear
// in execution order; the class counters and RecursionDepth are
// populated only by kernels whose capabilities declare ReportsPhases.
type Report struct {
	Algorithm string
	Triangles uint64
	// Elapsed is the end-to-end wall time including any in-kernel
	// preprocessing (the Table 5 accounting).
	Elapsed time.Duration
	Phases  []Phase
	// Triangle classes (Fig 7), LOTUS kernels only.
	HHH, HHN, HNN, NNN uint64
	// RecursionDepth reports levels used by the recursive variant.
	RecursionDepth int
	// Metrics is the flat counter snapshot collected when
	// Spec.CollectMetrics was set (nil otherwise). Names are dotted
	// (e.g. "phase1.steals"); DESIGN.md documents the full set.
	Metrics map[string]int64
	// Decision is the auto-tuner's routing record (the "auto" kernel
	// only): the chosen algorithm, the policy reason, and every probe
	// stat the decision read.
	Decision *obs.TuneDecision
}

// AddPhase appends a timed stage to the report.
func (r *Report) AddPhase(name string, d time.Duration) {
	r.Phases = append(r.Phases, Phase{Name: name, Duration: d})
}

// Phase returns the total duration recorded under name (zero when the
// kernel reported no such stage).
func (r *Report) Phase(name string) time.Duration {
	var d time.Duration
	for _, p := range r.Phases {
		if p.Name == name {
			d += p.Duration
		}
	}
	return d
}

// HubTriangles returns triangles containing at least one hub.
func (r *Report) HubTriangles() uint64 { return r.HHH + r.HHN + r.HNN }

// Task carries the per-run state a kernel operates on.
type Task struct {
	// Graph is the validated input graph.
	Graph *graph.Graph
	// Pool is the run's scheduler, bound to the run context: parallel
	// regions stop at chunk claims once the context is done, and
	// kernels poll Pool.Cancelled() on long sequential stretches.
	Pool *sched.Pool
	// Params are the tuning knobs from the Spec.
	Params Params
	// Report accumulates phase timings and class counters.
	Report *Report

	ctx     context.Context
	metrics *obs.Metrics
}

// Ctx returns the run context.
func (t *Task) Ctx() context.Context { return t.ctx }

// Metrics returns the run's counter registry, nil unless the Spec set
// CollectMetrics. Kernels pass it straight into the layers below;
// every obs method is a no-op on a nil receiver, so no kernel needs a
// nil check.
func (t *Task) Metrics() *obs.Metrics { return t.metrics }

// Err returns the run context's error, nil while the run is live.
// Kernels check it between stages so a cancelled run stops before
// starting the next phase.
func (t *Task) Err() error { return t.ctx.Err() }

// Run executes spec against g: it resolves the algorithm in the
// registry, validates inputs at the engine boundary, binds the
// scheduler to ctx (plus Spec.Timeout, if any), runs the kernel with
// panic-to-error recovery, and returns the structured Report.
//
// Cancellation contract: if ctx is cancelled or the deadline passes
// while the kernel runs, workers stop at the next chunk claim or
// kernel poll point, and Run returns ctx.Err() (context.Canceled or
// context.DeadlineExceeded). Partial results are never returned, and
// no goroutines outlive the call.
func Run(ctx context.Context, g *graph.Graph, spec Spec) (*Report, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	name := spec.Algorithm
	if name == "" {
		name = DefaultAlgorithm
	}
	reg, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if reg.Caps.NeedsSymmetric && g.Oriented {
		return nil, fmt.Errorf("engine: algorithm %q %w, got an oriented one", name, ErrNeedsSymmetric)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool := sched.NewPool(spec.Workers).Bind(ctx)
	defer pool.Release()

	rep := &Report{Algorithm: name}
	task := &Task{Graph: g, Pool: pool, Params: spec.Params, Report: rep, ctx: ctx}
	if spec.CollectMetrics {
		task.metrics = obs.New()
		task.metrics.Set("graph.vertices", int64(g.NumVertices()))
		task.metrics.Set("graph.edges", g.NumEdges())
		task.metrics.Set("run.workers", int64(pool.Workers()))
	}
	start := time.Now()
	tri, err := invoke(reg, task)
	rep.Elapsed = time.Since(start)
	// A done context wins over whatever the kernel returned: the
	// structures it raced to fill are unspecified.
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	rep.Triangles = tri
	if task.metrics != nil {
		// The layers below already published their own wall times
		// ("preprocess.ns", "phase1.ns", ...); the engine adds nothing
		// here so no phase is counted twice.
		rep.Metrics = task.metrics.Snapshot()
	}
	return rep, nil
}

// invoke runs the kernel, converting panics into errors so one bad
// input or algorithm bug cannot take down a serving process.
func invoke(reg Registration, task *Task) (tri uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: algorithm %q panicked: %v\n%s", reg.Name, r, debug.Stack())
		}
	}()
	return reg.Kernel(task)
}
