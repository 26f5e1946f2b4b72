package lotustc

import (
	"lotustc/internal/core"
	"lotustc/internal/sched"
)

// LotusCounter is a reusable handle over a preprocessed LOTUS graph:
// preprocess once (or load from disk), count many times. Fig 6 shows
// preprocessing averages ~20% of end-to-end time, so amortizing it
// matters for repeated analytics on the same graph.
type LotusCounter struct {
	lg   *core.LotusGraph
	pool *sched.Pool
}

// NewLotusCounter preprocesses g into the LOTUS structures.
func NewLotusCounter(g *Graph, opt Options) *LotusCounter {
	pool := sched.NewPool(opt.Workers)
	lg := core.Preprocess(g, core.Options{
		HubCount: opt.HubCount, FrontFraction: opt.FrontFraction, Pool: pool,
	})
	return &LotusCounter{lg: lg, pool: pool}
}

// LoadLotusCounter restores a counter persisted with Save.
func LoadLotusCounter(path string, workers int) (*LotusCounter, error) {
	lg, err := core.LoadLotusFile(path)
	if err != nil {
		return nil, err
	}
	return &LotusCounter{lg: lg, pool: sched.NewPool(workers)}, nil
}

// Save persists the preprocessed structure at path.
func (c *LotusCounter) Save(path string) error { return c.lg.SaveFile(path) }

// HubCount returns the number of hubs selected during preprocessing.
func (c *LotusCounter) HubCount() int { return int(c.lg.HubCount) }

// TopologyBytes returns the LOTUS structure footprint (Table 7).
func (c *LotusCounter) TopologyBytes() int64 { return c.lg.TopologyBytes() }

// PreprocessTime returns the preprocessing wall time (zero for
// counters restored from disk).
func (c *LotusCounter) PreprocessTime() (d int64) {
	return int64(c.lg.PreprocessTime)
}

// Count runs the three LOTUS phases and returns the populated Result.
func (c *LotusCounter) Count() *Result {
	cr := c.lg.Count(c.pool)
	return &Result{
		Algorithm: AlgoLotus,
		Triangles: cr.Total,
		Elapsed:   cr.Phase1Time + cr.HNNTime + cr.NNNTime,
		Phase1:    cr.Phase1Time, HNNPhase: cr.HNNTime, NNNPhase: cr.NNNTime,
		Preprocess: c.lg.PreprocessTime,
		HHH:        cr.HHH, HHN: cr.HHN, HNN: cr.HNN, NNN: cr.NNN,
	}
}

// PerVertexTriangles returns the triangle participation count of
// every vertex, indexed by the graph's original vertex IDs.
func (c *LotusCounter) PerVertexTriangles() []uint64 {
	return perVertexTriangles(c.lg, c.pool)
}

// perVertexTriangles runs the per-vertex count over the one shard of
// a flat structure and maps it back to original vertex IDs.
func perVertexTriangles(lg *core.LotusGraph, pool *sched.Pool) []uint64 {
	per := lg.Flat().CountPerVertex(pool)
	out := make([]uint64, len(per))
	for old, nw := range lg.Relabeling {
		out[old] = per[nw]
	}
	return out
}
