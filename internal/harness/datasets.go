// Package harness regenerates every table and figure of the paper's
// evaluation section on synthetic datasets (DESIGN.md per-experiment
// index). Each experiment has a Run function that prints the same
// rows/series the paper reports; cmd/lotus-bench dispatches to them
// and EXPERIMENTS.md records measured-vs-paper.
package harness

import (
	"context"

	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

// Dataset is one synthetic stand-in for a paper dataset.
type Dataset struct {
	// Name labels the dataset in reports.
	Name string
	// Kind mirrors the paper's dataset types: SN (social network),
	// WG (web graph), or FLAT (the §5.5 less-power-law regime).
	Kind string
	// Analog names the paper dataset family this stands in for.
	Analog string
	// Build generates the graph (deterministic).
	Build func() *graph.Graph
}

// Suite scales the dataset sizes. Scale is the R-MAT log2 vertex
// count; the other generators are sized to match.
type Suite struct {
	Scale      uint
	EdgeFactor int
	// Ctx, when non-nil, bounds every experiment run from this suite:
	// pools built with NewPool are bound to it, and RunAll stops
	// between experiments once it is done.
	Ctx context.Context
}

// Context returns the suite's context, defaulting to Background.
func (s Suite) Context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// NewPool builds a worker pool bound to the suite's context, so the
// counting kernels it runs abort cooperatively when the suite's
// deadline expires. Callers need not Release it: the watcher
// goroutine exits with the context.
func (s Suite) NewPool(workers int) *sched.Pool {
	return sched.NewPool(workers).Bind(s.Context())
}

// lotusTotal is LOTUS end to end (build, then count) for the timed
// comparator tables. A build cut short by the suite's deadline counts
// 0, a partial result like any count on a cancelled pool; RunAll and
// lotus-bench report the abort.
func lotusTotal(g *graph.Graph, pool *sched.Pool) uint64 {
	lg := core.Preprocess(g, core.Options{Pool: pool})
	if lg == nil {
		return 0
	}
	return lg.Count(pool).Total
}

// SmallSuite sizes experiments for quick runs and benchmarks.
func SmallSuite() Suite { return Suite{Scale: 13, EdgeFactor: 12} }

// Datasets returns the evaluation datasets: two social-network
// analogs (R-MAT at different skew), two web-graph analogs
// (Chung-Lu, gamma 2.0 and 2.4), and one flat graph reproducing the
// Friendster regime.
func (s Suite) Datasets() []Dataset {
	n := 1 << s.Scale
	m := s.EdgeFactor * n
	return []Dataset{
		{
			Name: "rmat-sn", Kind: "SN", Analog: "Twitter-family (R-MAT a=0.57)",
			Build: func() *graph.Graph { return gen.RMAT(gen.DefaultRMAT(s.Scale, s.EdgeFactor, 1)) },
		},
		{
			Name: "rmat-dense", Kind: "SN", Analog: "Twitter 2010 (denser R-MAT)",
			Build: func() *graph.Graph {
				p := gen.DefaultRMAT(s.Scale-1, 2*s.EdgeFactor, 2)
				p.A, p.B, p.C = 0.60, 0.18, 0.18
				return gen.RMAT(p)
			},
		},
		{
			Name: "cl-web20", Kind: "WG", Analog: "UK web crawls (Chung-Lu gamma=2.0)",
			Build: func() *graph.Graph {
				return gen.ChungLu(gen.ChungLuParams{N: n, M: 2 * m, Gamma: 2.0, Seed: 3})
			},
		},
		{
			Name: "cl-web24", Kind: "WG", Analog: "SK-Domain (Chung-Lu gamma=2.4)",
			Build: func() *graph.Graph {
				return gen.ChungLu(gen.ChungLuParams{N: n, M: 2 * m, Gamma: 2.4, Seed: 4})
			},
		},
		{
			Name: "cl-flat", Kind: "FLAT", Analog: "Friendster (capped-degree Chung-Lu)",
			Build: func() *graph.Graph {
				return gen.ChungLu(gen.ChungLuParams{N: n, M: m, Gamma: 2.6, MaxDegreeCap: 0.002, Seed: 5})
			},
		},
		{
			// Sized so |E| ~ 3m: a trigrid has ~3 edges per vertex, so a
			// side of sqrt(m) puts its edge count in the same league as
			// the power-law datasets' m while the degrees stay flat (<= 6)
			// — the regime where the auto tuner must route away from
			// LOTUS.
			Name: "trigrid", Kind: "FLAT", Analog: "road networks (triangulated grid)",
			Build: func() *graph.Graph {
				side := intSqrt(m)
				return gen.TriGrid(side, side)
			},
		},
	}
}

// intSqrt returns floor(sqrt(x)) for non-negative x.
func intSqrt(x int) int {
	if x < 2 {
		return x
	}
	r := x
	for next := (r + x/r) / 2; next < r; next = (r + x/r) / 2 {
		r = next
	}
	return r
}
