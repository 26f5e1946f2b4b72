package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lotustc/internal/core"
	"lotustc/internal/coveredge"
	"lotustc/internal/engine"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
	"lotustc/internal/serve"
	"lotustc/internal/stats"
	"lotustc/internal/tune"
)

// countWorkload is count-skewed or count-flat: exact cold counts of a
// fixed pair of graphs through the engine's default auto route. One
// round counts both graphs.
type countWorkload struct {
	b      *bench
	graphs []graphInput
}

// countGraphs builds the workload's graph pair from the seed. The
// shapes follow the paper-experiment harness's analogs: skewed is the
// rmat-sn social network plus the cl-web24 web graph, flat is the
// trigrid road network plus the degree-capped cl-flat graph.
func countGraphs(s sizes, seed int64, flat bool) []graphInput {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << s.countScale
	m := s.edgeFactor * n
	if flat {
		// The grid has no randomness of its own; the seed moves its
		// sides a little so every seed is a different input.
		side := isqrt(m)
		rows, cols := side-rng.Intn(8), side+rng.Intn(8)
		clSeed := rng.Int63()
		return []graphInput{
			{name: "trigrid", g: gen.TriGrid(rows, cols),
				spec: serve.GraphSpec{Type: "trigrid", Rows: rows, Cols: cols}},
			{name: "cl-flat", g: gen.ChungLu(gen.ChungLuParams{N: n, M: m, Gamma: 2.6, MaxDegreeCap: 0.002, Seed: clSeed})},
		}
	}
	rmatSeed, clSeed := rng.Int63(), rng.Int63()
	return []graphInput{
		{name: "rmat-sn", g: gen.RMAT(gen.DefaultRMAT(s.countScale, s.edgeFactor, rmatSeed)),
			spec: serve.GraphSpec{Type: "rmat", Scale: s.countScale, EdgeFactor: s.edgeFactor, Seed: rmatSeed}},
		{name: "cl-web24", g: gen.ChungLu(gen.ChungLuParams{N: n, M: 2 * m, Gamma: 2.4, Seed: clSeed})},
	}
}

func isqrt(x int) int {
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// newCount generates the graphs setupReps times (graph generation is
// this workload's set-up), then computes the references.
func newCount(b *bench, flat bool) (workload, prepStats, error) {
	var prep prepStats
	w := &countWorkload{b: b}
	for r := 0; r < b.cfg.size.setupReps; r++ {
		t0 := time.Now()
		w.graphs = countGraphs(b.cfg.size, b.cfg.seed, flat)
		prep.setup = append(prep.setup, time.Since(t0))
	}
	prep.gen = prep.setup
	for i := range w.graphs {
		w.graphs[i].ref = b.reference(w.graphs[i].g)
	}
	return w, prep, nil
}

// loop counts rounds until d has passed. Traced, a round makes the
// layer calls one by one, then runs engine.Run on the same graphs
// outside the round's latency, so the layers' sum and the engine's
// time are compared round by round.
func (w *countWorkload) loop(d time.Duration, tr *tracer) phaseStats {
	var st phaseStats
	var layered, run []float64
	alloc0 := totalAlloc()
	start := time.Now()
	for time.Since(start) < d {
		heads := make([]*graph.Graph, len(w.graphs))
		for i, in := range w.graphs {
			heads[i] = fresh(in.g)
		}
		var sum time.Duration
		t0 := time.Now()
		for i, in := range w.graphs {
			if tr == nil {
				w.b.countEngine(heads[i], in)
			} else {
				sum += w.b.countTraced(heads[i], in, tr, w.b.nextOp()).total()
			}
			st.edges += in.g.NumEdges()
		}
		st.latency = append(st.latency, time.Since(t0))
		st.requests += int64(len(w.graphs))
		if tr != nil {
			t1 := time.Now()
			for _, in := range w.graphs {
				sp := tr.start("engine.run", 0, w.b.nextOp())
				w.b.countEngine(fresh(in.g), in)
				tr.finish(sp)
			}
			run = append(run, ms(time.Since(t1)))
			layered = append(layered, ms(sum))
		}
	}
	st.wall = time.Since(start)
	st.alloc = totalAlloc() - alloc0
	if tr != nil {
		runMS, layeredMS := median(run), median(layered)
		st.layer = map[string]float64{
			"engine.run_ms":          runMS,
			"engine.unattributed_ms": runMS - layeredMS,
			"trace.span_coverage":    ratio(layeredMS, runMS),
		}
		st.samples = map[string]int{"engine.run_ms": len(run)}
	}
	return st
}

func (w *countWorkload) censusInput() censusInput {
	return censusInput{graphs: w.graphs, stream: w.graphs[0]}
}

func (w *countWorkload) close() {}

// countEngine counts g through engine.Run on the default auto route
// and checks the answer.
func (b *bench) countEngine(g *graph.Graph, in graphInput) *engine.Report {
	rep, err := engine.Run(context.Background(), g, engine.Spec{Algorithm: "auto", Workers: b.nproc})
	if err != nil {
		b.tally.check(false, "%s: engine.Run: %v", in.name, err)
		return nil
	}
	// Only LOTUS routes report the class split; cover-edge leaves it 0.
	classesOK := rep.HHH+rep.HHN+rep.HNN+rep.NNN == rep.Triangles || rep.Decision.Algorithm != "lotus"
	b.tally.check(rep.Triangles == in.ref && classesOK,
		"%s: engine.Run(auto) = %d (classes %d/%d/%d/%d), reference %d",
		in.name, rep.Triangles, rep.HHH, rep.HHN, rep.HNN, rep.NNN, in.ref)
	return rep
}

// layerTimes is what one decomposed count spent in each layer.
type layerTimes struct {
	algorithm string
	probe     time.Duration
	preproc   time.Duration // LOTUS routes
	count     time.Duration
	res       *core.Result // LOTUS routes
	lg        *core.LotusGraph
	opt       core.CountOptions
}

// total is the time the layers account for.
func (lt layerTimes) total() time.Duration { return lt.probe + lt.preproc + lt.count }

// countTraced makes the calls engine.Run(auto) makes, one layer at a
// time, with a span around each: the structural probe and the tune
// policy, then LOTUS preprocessing and counting or the cover-edge
// kernel, whichever the policy picked.
func (b *bench) countTraced(g *graph.Graph, in graphInput, tr *tracer, op int64) layerTimes {
	var lt layerTimes
	pool := sched.NewPool(b.nproc)
	root := tr.start("engine.count", 0, op)
	defer tr.finish(root)

	t0 := time.Now()
	sp := tr.start("tune.probe", root, op)
	dec := tune.Decide(stats.ComputeProbe(g, 0, pool), tune.Overrides{})
	tr.finish(sp)
	lt.probe = time.Since(t0)
	lt.algorithm = dec.Algorithm

	switch dec.Algorithm {
	case "lotus":
		t0 = time.Now()
		sp = tr.start("core.preprocess", root, op)
		lg, err := core.TryPreprocess(g, core.Options{Pool: pool})
		tr.finish(sp)
		lt.preproc = time.Since(t0)
		if err != nil {
			b.tally.check(false, "%s: core.TryPreprocess: %v", in.name, err)
			return lt
		}
		opt, err := countOptions(dec)
		if err != nil {
			b.tally.check(false, "%s: %v", in.name, err)
			return lt
		}
		t0 = time.Now()
		sp = tr.start("core.count", root, op)
		res := lg.CountWithOptions(pool, opt)
		tr.finish(sp)
		lt.count = time.Since(t0)
		lt.res, lt.lg, lt.opt = res, lg, opt
		b.tally.check(res.Total == in.ref && res.HHH+res.HHN+res.HNN+res.NNN == res.Total,
			"%s: CountWithOptions = %d (classes %d/%d/%d/%d), reference %d",
			in.name, res.Total, res.HHH, res.HHN, res.HNN, res.NNN, in.ref)
	case "cover-edge":
		t0 = time.Now()
		sp = tr.start("coveredge.count", root, op)
		res := coveredge.Count(g, pool, nil)
		tr.finish(sp)
		lt.count = time.Since(t0)
		b.tally.check(res.Total == in.ref, "%s: coveredge.Count = %d, reference %d", in.name, res.Total, in.ref)
	default:
		b.tally.check(false, "%s: tuner routed to %q, which the benchmark does not decompose", in.name, dec.Algorithm)
	}
	return lt
}

// countOptions carries the tuner's kernel choices into a direct count,
// as the engine's lotus kernel does.
func countOptions(dec tune.Decision) (core.CountOptions, error) {
	var opt core.CountOptions
	var err error
	if opt.Phase1Kernel, err = core.ParsePhase1Kernel(dec.Phase1Kernel); err != nil {
		return opt, fmt.Errorf("tuner phase-1 kernel: %w", err)
	}
	if opt.Intersect, err = core.ParseIntersectKernel(dec.IntersectKernel); err != nil {
		return opt, fmt.Errorf("tuner intersect kernel: %w", err)
	}
	return opt, nil
}
