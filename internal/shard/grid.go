package shard

import (
	"fmt"
	"time"

	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
)

// VertexRange aliases the core type: a contiguous [Lo, Hi) range of
// relabeled vertex IDs.
type VertexRange = core.VertexRange

// MaxGrid bounds the grid dimension: triple enumeration is
// O(p^3 / 6) and per-apex range restriction is O(p^2), so an absurd p
// would turn scheduling overhead into the dominant cost long before
// this limit.
const MaxGrid = 64

// Options configure a grid build.
type Options struct {
	// Options are the LOTUS preprocessing options, with core's meaning
	// and defaults: the grid's shared relabeling is computed exactly as
	// core.TryPreprocess computes it. Metrics, when non-nil, receives
	// core.TryPreprocess's build counters (summed over shards) and
	// shard.blocks.
	core.Options
	// Grid is the dimension p of the p×p block grid (0 or 1 = a single
	// block: the flat LOTUS structure).
	Grid int
}

// Plan is the cheap, shard-independent half of a grid build: the
// global relabeling, the hub count, and the degree-aware vertex
// ranges. A serving layer caches the plan and each shard as separate
// LRU entries, so evicting one shard never throws away the
// partitioning work.
type Plan struct {
	// P is the grid dimension.
	P int
	// Ranges are the P contiguous relabeled-ID ranges, sorted,
	// disjoint, covering [0, n). Ranges may be empty.
	Ranges []VertexRange
	// Relabeling maps original ID -> relabeled ID (shared by every
	// shard).
	Relabeling []uint32
	// HubCount is the global hub count.
	HubCount uint32

	// build holds the hub count and front fraction every shard is
	// built with.
	build core.Options
}

// NumVertices returns |V|.
func (pl *Plan) NumVertices() int { return len(pl.Relabeling) }

// SizeBytes estimates the plan's resident footprint (the relabeling
// array dominates).
func (pl *Plan) SizeBytes() int64 { return 4*int64(len(pl.Relabeling)) + 8*int64(pl.P) + 64 }

// NewPlan computes the shared relabeling and the degree-aware
// partition for a p-way grid over g. Blocks are balanced by oriented
// degree (each vertex weighted by its count of lower-relabeled-ID
// neighbours, plus one so empty tails still spread), which is the
// per-row work both preprocessing and counting pay. At p = 1 the one
// range is [0, |V|) whatever the weights, so they are not computed.
func NewPlan(g *graph.Graph, opt Options) (*Plan, error) {
	if g == nil {
		return nil, core.ErrNilGraph
	}
	if g.Oriented {
		return nil, core.ErrOriented
	}
	if opt.Grid < 0 || opt.Grid > MaxGrid {
		return nil, fmt.Errorf("shard: grid dimension %d out of range [0, %d]", opt.Grid, MaxGrid)
	}
	p := max(opt.Grid, 1)
	pool := opt.Pool
	if pool == nil {
		pool = sched.NewPool(0)
	}
	n := g.NumVertices()
	hubCount := uint32(opt.EffectiveHubCount(n))
	t0 := time.Now()
	ra := reorder.Lotus(g, reorder.LotusOptions{HubCount: int(hubCount), FrontFraction: opt.FrontFraction})
	opt.Metrics.AddDuration(obs.PreprocessRelabelNS, time.Since(t0))

	ranges := []VertexRange{{Hi: uint32(n)}}
	if p > 1 {
		ranges = PartitionByWeight(orientedWeights(g, ra, pool), p)
	}
	return &Plan{
		P:          p,
		Ranges:     ranges,
		Relabeling: ra,
		HubCount:   hubCount,
		build:      core.Options{HubCount: opt.HubCount, FrontFraction: opt.FrontFraction},
	}, nil
}

// orientedWeights weights each relabeled ID by its oriented degree
// |N^<_v| + 1: the number of HE+NHE entries its row will hold, which
// is what both the per-shard build and the per-apex counting walk.
func orientedWeights(g *graph.Graph, ra []uint32, pool *sched.Pool) []uint64 {
	w := make([]uint64, len(ra))
	pool.For(len(ra), 0, func(_, start, end int) {
		for vOld := start; vOld < end; vOld++ {
			if pool.Cancelled() {
				return
			}
			vNew := ra[vOld]
			var d uint64
			for _, uOld := range g.Neighbors(uint32(vOld)) {
				if ra[uOld] < vNew {
					d++
				}
			}
			w[vNew] = d + 1
		}
	})
	return w
}

// BuildShard builds block b's LOTUS structure. Shards are independent
// of each other, so a caller may build them concurrently, lazily, or
// on cache miss only.
// m, when non-nil, receives core.TryPreprocessRange's counters.
func (pl *Plan) BuildShard(g *graph.Graph, b int, pool *sched.Pool, m *obs.Metrics) (*core.LotusShard, error) {
	if b < 0 || b >= pl.P {
		return nil, fmt.Errorf("shard: block %d out of range [0, %d)", b, pl.P)
	}
	opt := pl.build
	opt.Pool, opt.Metrics = pool, m
	return core.TryPreprocessRange(g, opt, pl.Relabeling, pl.Ranges[b])
}

// Grid is a complete LOTUS structure over a row partition: the plan
// it is built from plus one built shard per block. At P = 1 its one
// shard is the flat structure (core.LotusGraph's rows). It is the
// value engine.Params.Prepared carries for the LOTUS kernel.
type Grid struct {
	*Plan
	// Shards are the per-block structures, Shards[b] covering
	// Ranges[b].
	Shards []*core.LotusShard
	// PreprocessTime is the wall time of Build (plan + all shards);
	// grids assembled from cached shards report zero.
	PreprocessTime time.Duration
}

// TopologyBytes returns the summed structure footprint of every
// shard.
func (gr *Grid) TopologyBytes() int64 {
	var b int64
	for _, s := range gr.Shards {
		b += s.TopologyBytes()
	}
	return b
}

// Assemble checks that the shards match the plan — same ranges, same
// hub count, same graph — and wraps them into a Grid. The checks are
// the serving layer's corruption firewall: shards arrive from a cache
// keyed by request parameters, and a stale or crossed entry must fail
// the assembly, not corrupt a count.
func Assemble(pl *Plan, shards []*core.LotusShard) (*Grid, error) {
	if len(shards) != pl.P {
		return nil, fmt.Errorf("shard: %d shards for a %d-way plan", len(shards), pl.P)
	}
	for b, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("shard: block %d is nil", b)
		}
		if s.Range != pl.Ranges[b] {
			return nil, fmt.Errorf("shard: block %d covers [%d, %d), plan says [%d, %d)",
				b, s.Range.Lo, s.Range.Hi, pl.Ranges[b].Lo, pl.Ranges[b].Hi)
		}
		if s.HubCount != pl.HubCount {
			return nil, fmt.Errorf("shard: block %d built with %d hubs, plan says %d", b, s.HubCount, pl.HubCount)
		}
		if s.NumVertices() != pl.NumVertices() {
			return nil, fmt.Errorf("shard: block %d built from a %d-vertex graph, plan says %d",
				b, s.NumVertices(), pl.NumVertices())
		}
	}
	return &Grid{Plan: pl, Shards: shards}, nil
}

// Build runs the whole pipeline: plan, build every shard, assemble.
func Build(g *graph.Graph, opt Options) (*Grid, error) {
	t0 := time.Now()
	if opt.Pool == nil {
		opt.Pool = sched.NewPool(0)
	}
	pool := opt.Pool
	pl, err := NewPlan(g, opt)
	if err != nil {
		return nil, err
	}
	shards := make([]*core.LotusShard, pl.P)
	for b := range shards {
		if pool.Cancelled() {
			break
		}
		if shards[b], err = pl.BuildShard(g, b, pool, opt.Metrics); err != nil {
			return nil, err
		}
	}
	if pool.Cancelled() {
		// The engine discards the run on a done context; return a
		// well-formed error rather than a half-built grid.
		return nil, fmt.Errorf("shard: build cancelled")
	}
	gr, err := Assemble(pl, shards)
	if err != nil {
		return nil, err
	}
	gr.PreprocessTime = time.Since(t0)
	opt.Metrics.Set(obs.ShardBlocks, int64(gr.P))
	opt.Metrics.AddDuration(obs.PreprocessNS, gr.PreprocessTime)
	return gr, nil
}
