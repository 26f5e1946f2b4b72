package core

import (
	"fmt"
	"time"

	"lotustc/internal/bitarray"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
)

// MaxGrid bounds the grid dimension: triple enumeration is
// O(p^3 / 6) and per-apex range restriction is O(p^2), so an absurd p
// would turn scheduling overhead into the dominant cost long before
// this limit.
const MaxGrid = 64

// Plan is the cheap, shard-independent half of a build: the global
// relabeling, the hub count, and the degree-aware vertex ranges. A
// serving layer caches the plan and each shard as separate LRU
// entries, so evicting one shard never throws away the partitioning
// work.
type Plan struct {
	// P is the grid dimension.
	P int
	// Ranges are the P contiguous relabeled-ID ranges, sorted,
	// disjoint, covering [0, n). Ranges may be empty.
	Ranges []VertexRange
	// Relabeling maps original ID -> relabeled ID (shared by every
	// shard): the §4.3.1 relabeling array.
	Relabeling []uint32
	// HubCount is the global hub count.
	HubCount uint32
}

// NumVertices returns |V|.
func (pl *Plan) NumVertices() int { return len(pl.Relabeling) }

// SizeBytes estimates the plan's resident footprint (the relabeling
// array dominates).
func (pl *Plan) SizeBytes() int64 { return 4*int64(len(pl.Relabeling)) + 8*int64(pl.P) + 64 }

// NewPlan computes the shared relabeling and the degree-aware
// partition for a p-way grid over g, p = max(opt.Grid, 1). Blocks are
// balanced by oriented degree (each vertex weighted by its count of
// lower-relabeled-ID neighbours, plus one so empty tails still
// spread), which is the per-row work both preprocessing and counting
// pay. At p = 1 the one range is [0, |V|) whatever the weights, so
// they are not computed.
func NewPlan(g *graph.Graph, opt Options) (*Plan, error) {
	if err := checkPreprocessInput(g); err != nil {
		return nil, err
	}
	if opt.Grid < 0 || opt.Grid > MaxGrid {
		return nil, fmt.Errorf("core: grid dimension %d out of range [0, %d]", opt.Grid, MaxGrid)
	}
	p := max(opt.Grid, 1)
	n := g.NumVertices()
	hubCount := uint32(opt.EffectiveHubCount(n))
	t0 := time.Now()
	ra := reorder.Lotus(g, reorder.LotusOptions{HubCount: int(hubCount), FrontFraction: opt.FrontFraction})
	opt.Metrics.AddDuration(obs.PreprocessRelabelNS, time.Since(t0))

	ranges := []VertexRange{{Hi: uint32(n)}}
	if p > 1 {
		ranges = PartitionByWeight(orientedWeights(g, ra, opt.pool()), p)
	}
	return &Plan{P: p, Ranges: ranges, Relabeling: ra, HubCount: hubCount}, nil
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

// PartitionByWeight cuts the ID space [0, len(w)) into p contiguous
// ranges of near-equal total weight: cut t is the smallest index
// whose weight prefix reaches t/p of the total. Ranges may be empty
// (a single huge weight can swallow several targets); they are always
// sorted, disjoint and cover [0, n).
func PartitionByWeight(w []uint64, p int) []VertexRange {
	n := len(w)
	prefix := make([]uint64, n+1)
	for i, x := range w {
		prefix[i+1] = prefix[i] + x
	}
	total := prefix[n]
	ranges := make([]VertexRange, p)
	cut := 0
	for t := 0; t < p; t++ {
		lo := cut
		if t == p-1 {
			cut = n
		} else {
			// Smallest index with prefix >= ceil(total*(t+1)/p). The
			// target sequence is nondecreasing, so the search resumes
			// at the previous cut.
			target := (total*uint64(t+1) + uint64(p) - 1) / uint64(p)
			for cut < n && prefix[cut] < target {
				cut++
			}
		}
		ranges[t] = VertexRange{Lo: uint32(lo), Hi: uint32(cut)}
	}
	return ranges
}

// BuildShard builds block b's LOTUS structure, the one Algorithm 2
// build: the walk (buildRows) over Ranges[b], with g's IDs mapped
// through the shared relabeling, so a shard row is byte-identical to
// the p = 1 row of the same vertex. g must be the graph the plan was
// computed from. Shards are independent of each other, so a caller
// may build them concurrently, lazily, or on cache miss only; a nil
// pool uses a GOMAXPROCS one. m, when non-nil, receives the walk's
// timed passes and the structure counters: lotus.hubs, and
// lotus.he_edges, lotus.nhe_edges and lotus.h2h_bits added per shard,
// so a grid publishes its shards' sums.
func (pl *Plan) BuildShard(g *graph.Graph, b int, pool *sched.Pool, m *obs.Metrics) (*LotusShard, error) {
	if err := checkPreprocessInput(g); err != nil {
		return nil, err
	}
	if n := g.NumVertices(); n != pl.NumVertices() {
		return nil, fmt.Errorf("core: plan is for %d vertices, graph has %d", pl.NumVertices(), n)
	}
	if b < 0 || b >= pl.P {
		return nil, fmt.Errorf("core: block %d out of range [0, %d)", b, pl.P)
	}
	if pool == nil {
		pool = sched.NewPool(0)
	}
	r, hubCount := pl.Ranges[b], pl.HubCount
	hubHi := min(r.Hi, hubCount)
	h2h := bitarray.NewTriRows(min(r.Lo, hubHi), hubHi)
	he, nhe := buildRows(g, pool, pl.Relabeling, hubCount, r, h2h, m)
	if m != nil {
		m.Set("lotus.hubs", int64(hubCount))
		m.Add("lotus.he_edges", he.NumEdges())
		m.Add("lotus.nhe_edges", nhe.NumEdges())
		m.Add("lotus.h2h_bits", int64(h2h.PopCount()))
	}
	return &LotusShard{Range: r, HubCount: hubCount, H2H: h2h, HE: he, NHE: nhe, numVertices: pl.NumVertices()}, nil
}
