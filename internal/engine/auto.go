package engine

import (
	"fmt"
	"time"

	"lotustc/internal/coveredge"
	"lotustc/internal/tune"
)

// coverEdgeKernel counts by the cover-edge method (Bader et al.,
// arXiv:2403.02997): BFS levels partition the edges, and only the
// horizontal ("cover") edges are intersected. No LOTUS structures are
// built, so Prepared and the phase-1 kernel knob are ignored; the
// intersection strategy is fixed by the kernel itself (adaptive
// merge/galloping dispatch).
func coverEdgeKernel(t *Task) (uint64, error) {
	res := coveredge.Count(t.Graph, t.Pool, t.Metrics())
	if err := t.Err(); err != nil {
		return 0, err
	}
	// The BFS level assignment is this kernel's whole preprocessing —
	// it is what replaces the LOTUS structure build.
	t.Report.AddPhase(PhasePreprocess, res.BFSTime)
	t.Report.AddPhase(PhaseCount, res.CountTime)
	return res.Total, nil
}

// autoKernel is the structural auto-tuner's engine face: probe the
// graph, let the tune policy pick the algorithm and kernel knobs,
// delegate to the chosen registration on the same task, and record
// the full decision (reason, probe stats, probe cost) in the report.
// Every run probes: a resident service that re-counts one graph keeps
// its decisions in its own cache. Params.TuneAlgorithm pins the
// routed algorithm for ablation, and a non-empty Params.Phase1Kernel
// / IntersectKernel wins over the tuner's kernel choices.
func autoKernel(t *Task) (uint64, error) {
	probeStart := time.Now()
	dec := tune.Analyze(t.Graph, t.Params.HubCount, t.Pool, tune.Overrides{
		Algorithm:       t.Params.TuneAlgorithm,
		Phase1Kernel:    t.Params.Phase1Kernel,
		IntersectKernel: t.Params.IntersectKernel,
	})
	if err := t.Err(); err != nil {
		return 0, err
	}
	if dec.Algorithm == "auto" {
		return 0, fmt.Errorf("engine: tune algorithm override %q would recurse", dec.Algorithm)
	}
	reg, err := Lookup(dec.Algorithm)
	if err != nil {
		return 0, fmt.Errorf("engine: tuner routed to %w", err)
	}
	t.Report.AddPhase(PhaseProbe, time.Since(probeStart))
	t.Report.Decision = dec.Report()
	dec.Publish(t.Metrics())
	// Delegate on a shallow task copy: same graph, pool, context and
	// report (the delegate's phases and classes land in this run's
	// report), with the tuner's kernel knobs substituted in.
	sub := *t
	sub.Params.Phase1Kernel = dec.Phase1Kernel
	sub.Params.IntersectKernel = dec.IntersectKernel
	return reg.Kernel(&sub)
}
