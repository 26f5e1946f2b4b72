package engine

import (
	"fmt"

	"lotustc/internal/baseline"
	"lotustc/internal/core"
)

// The built-in registrations: LOTUS, the §5.1.4 comparators, and the
// §6.1 classics. Registration order is the display order of every
// algorithm listing.
func init() {
	// Every built-in routes parallel work through the bound pool, so
	// all observe cooperative cancellation.
	phased := Capabilities{SupportsWorkers: true, ReportsPhases: true, NeedsSymmetric: true, Cancellable: true}
	lotus := phased
	lotus.ReportsClasses, lotus.Streaming, lotus.Shardable = true, true, true
	parallel := Capabilities{SupportsWorkers: true, NeedsSymmetric: true, Cancellable: true}
	sequential := Capabilities{NeedsSymmetric: true, Cancellable: true}

	MustRegister("lotus", lotus, lotusKernel)
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

// lotusKernel runs LOTUS over a p-way row partition, p =
// max(Params.Shards, 1); p = 1 is the flat structure. It builds the
// structure (core.TryPreprocess: Algorithm 2 per shard over one
// shared relabeling) and counts its live block triples through the
// three phases of Algorithm 3 (core.LotusGraph.CountWithOptions);
// totals and the class split are the same at every p, because every
// triangle keeps its apex and class. A Params.Prepared structure (a
// serving cache hit) skips the build, and the preprocess phase is
// then reported as zero; a structure of another graph or another
// dimension wraps ErrPreparedMismatch.
func lotusKernel(t *Task) (uint64, error) {
	if t.Params.Shards < 0 || t.Params.Shards > core.MaxGrid {
		return 0, fmt.Errorf("engine: shard grid %d out of range [0, %d]", t.Params.Shards, core.MaxGrid)
	}
	p := max(t.Params.Shards, 1)
	lg := t.Params.Prepared
	if lg != nil {
		if lg.NumVertices() != t.Graph.NumVertices() {
			return 0, fmt.Errorf("engine: prepared LOTUS structure has %d vertices, graph has %d: %w",
				lg.NumVertices(), t.Graph.NumVertices(), ErrPreparedMismatch)
		}
		if lg.P != p {
			return 0, fmt.Errorf("engine: prepared LOTUS structure is %d-way, run asked for %d: %w",
				lg.P, p, ErrPreparedMismatch)
		}
		t.Report.AddPhase(PhasePreprocess, 0)
		t.Metrics().Set("preprocess.cached", 1)
	} else {
		var err error
		lg, err = core.TryPreprocess(t.Graph, core.Options{
			HubCount:      t.Params.HubCount,
			FrontFraction: t.Params.FrontFraction,
			Pool:          t.Pool,
			Metrics:       t.Metrics(),
			Grid:          p,
		})
		if err != nil {
			return 0, err
		}
		t.Report.AddPhase(PhasePreprocess, lg.PreprocessTime)
	}
	if err := t.Err(); err != nil {
		return 0, err
	}
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
	cr := lg.CountWithOptions(t.Pool, copt)
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
