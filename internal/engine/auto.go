package engine

import (
	"fmt"
	"sync"
	"time"

	"lotustc/internal/coveredge"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
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

// tuneCache memoizes decisions per (graph, hub count, overrides).
// Graphs are immutable once built, so the pointer identifies the
// structure; a resident service re-counting a cached graph pays the
// probe once, exactly as it pays LOTUS preprocessing once via
// Params.Prepared. Bounded small — entries are a few hundred bytes
// and a stale key (a freed graph) just wastes its slot until evicted.
var tuneCache = struct {
	sync.Mutex
	m map[tuneCacheKey]tune.Decision
}{m: make(map[tuneCacheKey]tune.Decision)}

type tuneCacheKey struct {
	g        *graph.Graph
	hubCount int
	ov       tune.Overrides
}

const tuneCacheCap = 128

// decideCached returns the tune decision for the task, probing only
// on the first sight of a graph. probed reports a cold probe.
func decideCached(t *Task) (dec tune.Decision, probed bool) {
	key := tuneCacheKey{g: t.Graph, hubCount: t.Params.HubCount, ov: tune.Overrides{
		Algorithm:       t.Params.TuneAlgorithm,
		Phase1Kernel:    t.Params.Phase1Kernel,
		IntersectKernel: t.Params.IntersectKernel,
	}}
	tuneCache.Lock()
	dec, ok := tuneCache.m[key]
	tuneCache.Unlock()
	if ok {
		return dec, false
	}
	dec = tune.Analyze(t.Graph, key.hubCount, t.Pool, key.ov)
	if t.Err() != nil {
		// A cancelled probe yields unspecified stats; never cache it.
		return dec, true
	}
	tuneCache.Lock()
	if len(tuneCache.m) >= tuneCacheCap {
		for k := range tuneCache.m {
			delete(tuneCache.m, k)
			break
		}
	}
	tuneCache.m[key] = dec
	tuneCache.Unlock()
	return dec, true
}

// autoKernel is the structural auto-tuner's engine face: probe the
// graph (memoized per graph), let the tune policy pick the algorithm
// and kernel knobs, delegate to the chosen registration on the same
// task, and record the full decision (reason, probe stats, probe
// cost) in the report. Params.TuneAlgorithm pins the routed algorithm
// for ablation, and a non-empty Params.Phase1Kernel /
// IntersectKernel wins over the tuner's kernel choices.
func autoKernel(t *Task) (uint64, error) {
	probeStart := time.Now()
	dec, probed := decideCached(t)
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
	// The probe phase records what THIS run spent (near zero on a
	// cache hit); the decision block keeps the original probe cost.
	t.Report.AddPhase(PhaseProbe, time.Since(probeStart))
	t.Report.Decision = dec.Report()
	dec.Publish(t.Metrics())
	if !probed {
		t.Metrics().Add(obs.TuneCacheHits, 1)
	}
	// Delegate on a shallow task copy: same graph, pool, context and
	// report (the delegate's phases and classes land in this run's
	// report), with the tuner's kernel knobs substituted in.
	sub := *t
	sub.Params.Phase1Kernel = dec.Phase1Kernel
	sub.Params.IntersectKernel = dec.IntersectKernel
	return reg.Kernel(&sub)
}
