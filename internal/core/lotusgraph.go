// Package core implements the LOTUS algorithm (§4): the LotusGraph
// structure — H2H triangular bit array, HE (hub edges, 16-bit IDs)
// and NHE (non-hub edges, 32-bit IDs) sub-graphs — its preprocessing
// (Algorithm 2), the three-phase triangle count (Algorithm 3), and
// Squared Edge Tiling (§4.6). The paper's streaming future-work
// extension (§6.2, hub TC under edge insertions and deletions) lives
// in streaming.go.
//
// A LotusGraph is a row partition of one LOTUS structure: the
// relabeled vertex ID space is cut into p contiguous, work-balanced
// ranges (Options.Grid; p = 1 is the paper's flat structure), one
// LotusShard holds the rows of each range, and the count enumerates
// the block triples (i <= j <= k) of the implied p×p grid — the
// in-process analogue of the 2D block-partitioned distributed TC
// designs (Tom & Karypis, arXiv:1907.09575; Sanders & Uhl,
// arXiv:2302.11443).
//
// The crucial design decision is that all shards share ONE global
// LOTUS relabeling. Shard rows keep global relabeled IDs, so the hub
// set, the apex of every triangle, and therefore the class of every
// triangle (HHH/HHN/HNN/NNN) are the same at every p — the per-class
// counts come out bit-identical by construction, and a p-way
// structure is simply a row partition of the p = 1 one.
package core

import (
	"errors"
	"fmt"
	"time"

	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// DefaultHubCount is the paper's hub count: the 64K (2^16) vertices
// with the highest degrees are hubs (§4.2). With 16-bit IDs every HE
// edge takes 2 bytes.
const DefaultHubCount = 1 << 16

// Options configure preprocessing.
type Options struct {
	// HubCount is the number of hubs. Zero selects the adaptive
	// default min(2^16, |V|/64): the paper fixes 64K hubs, which is
	// 0.1-1% of |V| on its datasets, and |V|/64 (~1.6%) keeps the
	// same hub-to-vertex regime at laptop scale. Pin it to
	// DefaultHubCount to reproduce the paper's fixed-64K behaviour
	// (§5.5).
	HubCount int
	// FrontFraction is the §4.3.1 front block: the fraction of
	// highest-degree vertices relabeled to the lowest IDs (paper:
	// 10%). Zero selects the default.
	FrontFraction float64
	// Pool supplies workers for parallel preprocessing; nil uses a
	// GOMAXPROCS pool.
	Pool *sched.Pool
	// Metrics, when non-nil, receives the preprocessing counters
	// (preprocess.ns, preprocess.relabel.ns, preprocess.walk.count.ns,
	// preprocess.walk.fill.ns, lotus.hubs, lotus.he_edges,
	// lotus.nhe_edges, lotus.h2h_bits, shard.blocks — names in
	// DESIGN.md), the lotus.* ones summed over the shards.
	Metrics *obs.Metrics
	// Grid is the dimension p of the p×p block grid, in [0, MaxGrid]
	// (0 or 1 = a single block: the flat LOTUS structure).
	Grid int
}

// EffectiveHubCount resolves the hub count for a graph of n vertices.
// The result never exceeds DefaultHubCount (2^16): HE stores hub IDs
// in 16 bits, so a larger hub set would silently truncate neighbour
// IDs and corrupt every count.
func (o Options) EffectiveHubCount(n int) int {
	h := o.HubCount
	if h == 0 {
		h = n / 64
	}
	if h > DefaultHubCount {
		h = DefaultHubCount
	}
	if h > n {
		h = n
	}
	if h < 1 && n > 0 {
		h = 1
	}
	return h
}

// pool returns the preprocessing pool, defaulting to a GOMAXPROCS one.
func (o Options) pool() *sched.Pool {
	if o.Pool == nil {
		return sched.NewPool(0)
	}
	return o.Pool
}

// HE16 is the hub-edges sub-graph: for every vertex v it lists the
// hub neighbours h < v using 16-bit IDs (§4.2). Hubs occupy the first
// HubCount IDs after LOTUS relabeling, so hub IDs always fit.
type HE16 struct {
	offsets []int64
	nbrs    []uint16
}

// Neighbors returns v's hub-neighbour list (ascending).
func (s *HE16) Neighbors(v uint32) []uint16 { return s.nbrs[s.offsets[v]:s.offsets[v+1]] }

// Degree returns the number of hub neighbours of v.
func (s *HE16) Degree(v uint32) int { return int(s.offsets[v+1] - s.offsets[v]) }

// NumEdges returns |HE.E|.
func (s *HE16) NumEdges() int64 { return int64(len(s.nbrs)) }

// Offsets exposes the index array.
func (s *HE16) Offsets() []int64 { return s.offsets }

// Raw exposes the flat 16-bit neighbour array.
func (s *HE16) Raw() []uint16 { return s.nbrs }

// NHE32 is the non-hub-edges sub-graph: for every vertex v it lists
// the non-hub neighbours u < v using 32-bit IDs (§4.2). Rows of hub
// vertices are empty by construction.
type NHE32 struct {
	offsets []int64
	nbrs    []uint32
}

// Neighbors returns v's non-hub-neighbour list (ascending).
func (s *NHE32) Neighbors(v uint32) []uint32 { return s.nbrs[s.offsets[v]:s.offsets[v+1]] }

// Degree returns the number of non-hub neighbours of v.
func (s *NHE32) Degree(v uint32) int { return int(s.offsets[v+1] - s.offsets[v]) }

// NumEdges returns |NHE.E|.
func (s *NHE32) NumEdges() int64 { return int64(len(s.nbrs)) }

// Offsets exposes the index array.
func (s *NHE32) Offsets() []int64 { return s.offsets }

// Raw exposes the flat neighbour array.
func (s *NHE32) Raw() []uint32 { return s.nbrs }

// LotusGraph is the LOTUS graph structure of §4.2 over a row
// partition: the plan (relabeling, hub count, vertex ranges) and one
// shard per range, Shards[b] holding the H2H, HE and NHE rows of
// Ranges[b]. Vertex IDs are the relabeled IDs. At P = 1 the one shard
// holds every vertex's rows — the flat structure that the per-vertex
// count, the LotusGraph file and the analysis helpers read.
type LotusGraph struct {
	*Plan
	// Shards are the per-block structures, Shards[b] covering
	// Ranges[b].
	Shards []*LotusShard
	// PreprocessTime is the wall time of TryPreprocess (plan and every
	// shard); structures assembled from cached shards or read from a
	// file report zero.
	PreprocessTime time.Duration
}

// TopologyBytes returns the summed structure footprint of every
// shard (Table 7).
func (lg *LotusGraph) TopologyBytes() int64 {
	var b int64
	for _, s := range lg.Shards {
		b += s.TopologyBytes()
	}
	return b
}

// TryFlat returns the one shard of a P = 1 structure: the paper's
// flat LOTUS structure, which the file format, the per-vertex count,
// k-clique counting, the cache replays and the structure statistics
// read. A grid (P > 1) is an error.
func (lg *LotusGraph) TryFlat() (*LotusShard, error) {
	if lg.P != 1 {
		return nil, fmt.Errorf("core: a flat reader needs a 1-block structure, this one has %d", lg.P)
	}
	return lg.Shards[0], nil
}

// Flat is the panicking wrapper over TryFlat, for readers whose
// structure is built in-process at P = 1.
func (lg *LotusGraph) Flat() *LotusShard {
	s, err := lg.TryFlat()
	if err != nil {
		panic(err)
	}
	return s
}

// NonHubSubgraph extracts the symmetric sub-graph induced by the
// non-hub vertices (the NNN domain), with non-hub v mapped to
// v - HubCount. The approximate hybrid samples it in place of phase 3
// and the k-clique experiment counts it to measure the hub share.
func (lg *LotusGraph) NonHubSubgraph() *graph.Graph {
	hub := lg.HubCount
	sub := lg.NumVertices() - int(hub)
	if sub <= 0 {
		return graph.FromEdges(nil, graph.BuildOptions{})
	}
	var m int64
	for _, s := range lg.Shards {
		m += s.NHE.NumEdges()
	}
	edges := make([]graph.Edge, 0, m)
	for _, s := range lg.Shards {
		for v := max(s.Range.Lo, hub); v < s.Range.Hi; v++ {
			for _, u := range s.NHENeighbors(v) {
				edges = append(edges, graph.Edge{U: u - hub, V: v - hub})
			}
		}
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: sub})
}

// ErrOriented is returned by the Try preprocessors when handed an
// oriented graph: Algorithm 2 walks symmetric neighbour lists, so an
// oriented input would silently drop every forward edge.
var ErrOriented = errors.New("core: preprocessing requires a symmetric graph, got an oriented one")

// ErrNilGraph is returned by the Try preprocessors on a nil graph.
var ErrNilGraph = errors.New("core: nil graph")

// errBuildCancelled is TryPreprocess's error for a build cut short by
// its pool's context.
var errBuildCancelled = errors.New("core: build cancelled")

// checkPreprocessInput validates the preprocessing input contract of
// NewPlan and Plan.BuildShard.
func checkPreprocessInput(g *graph.Graph) error {
	if g == nil {
		return ErrNilGraph
	}
	if g.Oriented {
		return ErrOriented
	}
	return nil
}

// TryPreprocess builds the LotusGraph from a symmetric simple graph,
// implementing Algorithm 2 over a max(opt.Grid, 1)-way row partition:
// the plan (reorder.Lotus relabeling, then the vertex ranges), every
// shard (Plan.BuildShard: split each vertex's N^< into hub and
// non-hub neighbours and populate the H2H bit array), then the
// assembled structure. IDs are mapped through the relabeling on the
// fly rather than materializing the relabeled graph first (measured
// 1.5-2.4x faster; EXPERIMENTS.md, "Preprocessing strategies").
// PreprocessTime covers every step; opt.Metrics also receives
// shard.blocks.
//
// Invalid inputs (nil or oriented graphs, a grid outside
// [0, MaxGrid]) are rejected with an error, and so is a build whose
// pool is cancelled; the serving path depends on this never
// panicking.
func TryPreprocess(g *graph.Graph, opt Options) (*LotusGraph, error) {
	t0 := time.Now()
	opt.Pool = opt.pool()
	pl, err := NewPlan(g, opt)
	if err != nil {
		return nil, err
	}
	shards := make([]*LotusShard, pl.P)
	for b := range shards {
		if opt.Pool.Cancelled() {
			break
		}
		if shards[b], err = pl.BuildShard(g, b, opt.Pool, opt.Metrics); err != nil {
			return nil, err
		}
	}
	if opt.Pool.Cancelled() {
		// The engine discards the run on a done context; return a
		// well-formed error rather than a half-built structure.
		return nil, errBuildCancelled
	}
	lg := &LotusGraph{Plan: pl, Shards: shards, PreprocessTime: time.Since(t0)}
	opt.Metrics.Set(obs.ShardBlocks, int64(pl.P))
	opt.Metrics.AddDuration(obs.PreprocessNS, lg.PreprocessTime)
	return lg, nil
}

// Preprocess is the wrapper over TryPreprocess for inputs built
// in-process (generators, benchmarks, the analytics helpers): an
// invalid input panics. A build whose pool is cancelled returns nil,
// so a caller on a context-bound pool (the harness experiments, the
// estimators) stops on nil and lets its context report the abort.
func Preprocess(g *graph.Graph, opt Options) *LotusGraph {
	lg, err := TryPreprocess(g, opt)
	if err != nil {
		if errors.Is(err, errBuildCancelled) {
			return nil
		}
		panic(err)
	}
	return lg
}

// Assemble checks that the shards match the plan — same ranges, same
// hub count, same graph — and wraps them into a LotusGraph. The
// checks are the serving layer's corruption firewall: shards arrive
// from a cache keyed by request parameters, and a stale or crossed
// entry must fail the assembly, not corrupt a count.
func Assemble(pl *Plan, shards []*LotusShard) (*LotusGraph, error) {
	if len(shards) != pl.P || len(pl.Ranges) != pl.P {
		return nil, fmt.Errorf("core: %d shards and %d ranges for a %d-way plan", len(shards), len(pl.Ranges), pl.P)
	}
	for b, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("core: block %d is nil", b)
		}
		if s.Range != pl.Ranges[b] {
			return nil, fmt.Errorf("core: block %d covers [%d, %d), plan says [%d, %d)",
				b, s.Range.Lo, s.Range.Hi, pl.Ranges[b].Lo, pl.Ranges[b].Hi)
		}
		if s.HubCount != pl.HubCount {
			return nil, fmt.Errorf("core: block %d built with %d hubs, plan says %d", b, s.HubCount, pl.HubCount)
		}
		if s.NumVertices() != pl.NumVertices() {
			return nil, fmt.Errorf("core: block %d built from a %d-vertex graph, plan says %d",
				b, s.NumVertices(), pl.NumVertices())
		}
	}
	return &LotusGraph{Plan: pl, Shards: shards}, nil
}

// Validate checks the structural invariants of the LotusGraph: shards
// that match the plan (Assemble's checks) and each pass
// LotusShard.Validate, ranges that ascend and cover every vertex, and
// a relabeling that is a permutation of [0, |V|). Intended for tests
// and for ReadLotusGraph.
func (lg *LotusGraph) Validate() error {
	if _, err := Assemble(lg.Plan, lg.Shards); err != nil {
		return err
	}
	n := lg.NumVertices()
	var next uint32
	for b, s := range lg.Shards {
		if s.Range.Lo != next {
			return fmt.Errorf("block %d starts at %d, not %d", b, s.Range.Lo, next)
		}
		if err := s.Validate(); err != nil {
			return err
		}
		next = s.Range.Hi
	}
	if int(next) != n {
		return fmt.Errorf("rows cover [0, %d), not every vertex [0, %d)", next, n)
	}
	// Relabeling must be a permutation of [0, n): anything else makes
	// code that maps original IDs through it index out of range or
	// silently alias two vertices (corrupt files are the realistic
	// source — ReadLotusGraph relies on this check).
	seen := make([]uint64, (n+63)/64)
	for old, nw := range lg.Relabeling {
		if nw >= uint32(n) {
			return fmt.Errorf("relabeling[%d] = %d out of range", old, nw)
		}
		if seen[nw>>6]&(1<<(nw&63)) != 0 {
			return fmt.Errorf("relabeling maps two vertices to %d", nw)
		}
		seen[nw>>6] |= 1 << (nw & 63)
	}
	return nil
}
