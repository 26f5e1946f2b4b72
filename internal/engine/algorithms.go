package engine

import (
	"fmt"

	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/sched"
)

// The built-in registrations: flat and sharded LOTUS, the §5.1.4
// comparators, and the §6.1 classics. Registration order is the
// display order of every algorithm listing.
func init() {
	// Every built-in routes parallel work through the bound pool, so
	// all observe cooperative cancellation.
	phased := Capabilities{SupportsWorkers: true, ReportsPhases: true, NeedsSymmetric: true, Cancellable: true}
	lotus := phased
	lotus.ReportsClasses = true
	parallel := Capabilities{SupportsWorkers: true, NeedsSymmetric: true, Cancellable: true}
	sequential := Capabilities{NeedsSymmetric: true, Cancellable: true}
	streaming := lotus
	streaming.Streaming = true
	sharded := lotus
	sharded.Shardable = true

	MustRegister("lotus", streaming, lotusKernel)
	MustRegister("lotus-sharded", sharded, lotusShardedKernel)
	MustRegister("cover-edge", phased, coverEdgeKernel)
	MustRegister("auto", phased, autoKernel)
	MustRegister("forward", parallel, forwardKernel(baseline.KernelMerge))
	MustRegister("forward-binary", parallel, forwardKernel(baseline.KernelBinary))
	MustRegister("forward-hash", parallel, forwardKernel(baseline.KernelHash))
	MustRegister("edge-iterator", parallel, func(t *Task) (uint64, error) {
		return baseline.EdgeIterator(t.Graph, t.Pool), nil
	})
	MustRegister("node-iterator", parallel, func(t *Task) (uint64, error) {
		return baseline.NodeIterator(t.Graph, t.Pool), nil
	})
	MustRegister("gbbs", parallel, func(t *Task) (uint64, error) {
		return baseline.GBBS(t.Graph, t.Pool), nil
	})
	MustRegister("bbtc", parallel, func(t *Task) (uint64, error) {
		return baseline.BBTC(t.Graph, t.Pool, 0), nil
	})
	MustRegister("new-vertex-listing", parallel, func(t *Task) (uint64, error) {
		return baseline.NewVertexListing(t.Graph, t.Pool), nil
	})
	MustRegister("node-iterator-core", sequential, func(t *Task) (uint64, error) {
		return baseline.NodeIteratorCore(t.Graph, t.Pool), nil
	})
	MustRegister("ayz", parallel, func(t *Task) (uint64, error) {
		return baseline.AYZ(t.Graph, t.Pool, 0), nil
	})
	MustRegister("forward-degeneracy", parallel, func(t *Task) (uint64, error) {
		return baseline.ForwardDegeneracy(t.Graph, t.Pool, baseline.KernelMerge), nil
	})
}

// lotusKernel runs flat LOTUS: Algorithm 2 preprocessing followed by
// the three counting phases, all on the task's bound pool. A
// Params.Prepared structure (a serving cache hit) skips preprocessing
// entirely; the preprocess phase is then reported as zero.
func lotusKernel(t *Task) (uint64, error) {
	lg := t.Params.Prepared
	if lg != nil && lg.NumVertices() != t.Graph.NumVertices() {
		return 0, fmt.Errorf("engine: prepared LOTUS structure has %d vertices, graph has %d: %w",
			lg.NumVertices(), t.Graph.NumVertices(), ErrPreparedMismatch)
	}
	if lg == nil {
		var err error
		lg, err = core.TryPreprocess(t.Graph, core.Options{
			HubCount:      t.Params.HubCount,
			FrontFraction: t.Params.FrontFraction,
			Pool:          t.Pool,
			Metrics:       t.Metrics(),
		})
		if err != nil {
			return 0, err
		}
		t.Report.AddPhase(PhasePreprocess, lg.PreprocessTime)
	} else {
		t.Report.AddPhase(PhasePreprocess, 0)
		t.Metrics().Set("preprocess.cached", 1)
	}
	if err := t.Err(); err != nil {
		return 0, err
	}
	return countLotus(t, lg.CountWithOptions)
}

// countLotus is the counting tail of both LOTUS kernels: it runs
// Algorithm 3 through count (a LotusGraph's or a shard grid's) with
// the task's kernels, metrics and scratch, and reports the phase 1,
// HNN and NNN times and the class split.
func countLotus(t *Task, count func(*sched.Pool, core.CountOptions) *core.Result) (uint64, error) {
	copt := core.CountOptions{
		Metrics: t.Metrics(),
		Scratch: t.Params.Scratch,
	}
	var err error
	if copt.Phase1Kernel, err = core.ParsePhase1Kernel(t.Params.Phase1Kernel); err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	if copt.Intersect, err = core.ParseIntersectKernel(t.Params.IntersectKernel); err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	cr := count(t.Pool, copt)
	t.Report.AddPhase(PhaseHub, cr.Phase1Time)
	t.Report.AddPhase(PhaseHNN, cr.HNNTime)
	t.Report.AddPhase(PhaseNNN, cr.NNNTime)
	t.Report.HHH, t.Report.HHN, t.Report.HNN, t.Report.NNN = cr.HHH, cr.HHN, cr.HNN, cr.NNN
	return cr.Total, nil
}

// forwardKernel builds a kernel for one Forward-family intersection
// strategy.
func forwardKernel(k baseline.Kernel) Kernel {
	return func(t *Task) (uint64, error) {
		return baseline.ForwardWithMetrics(t.Graph, t.Pool, k, t.Metrics()), nil
	}
}
