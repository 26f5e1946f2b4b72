// Package core implements the LOTUS algorithm (§4): the LotusGraph
// structure — H2H triangular bit array, HE (hub edges, 16-bit IDs)
// and NHE (non-hub edges, 32-bit IDs) sub-graphs — its preprocessing
// (Algorithm 2), the three-phase triangle count (Algorithm 3), and
// Squared Edge Tiling (§4.6). The paper's streaming future-work
// extension (§6.2, hub TC under edge insertions and deletions) lives
// in streaming.go.
package core

import (
	"errors"
	"fmt"
	"time"

	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/reorder"
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
	// lotus.nhe_edges, lotus.h2h_bits — names in DESIGN.md).
	Metrics *obs.Metrics
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

// LotusGraph is the LOTUS graph structure of §4.2: the one-range row
// partition — a LotusShard over every vertex [0, |V|), whose H2H,
// HE and NHE rows, hub count and build time it promotes — plus the
// relabeling. Vertex IDs are the relabeled IDs.
type LotusGraph struct {
	*LotusShard
	// Relabeling is the §4.3.1 relabeling array (old ID -> new ID).
	Relabeling []uint32
}

// NonHubSubgraph extracts the symmetric sub-graph induced by the
// non-hub vertices (the NNN domain), with non-hub v mapped to
// v - HubCount. The approximate hybrid samples it in place of phase 3
// and the k-clique experiment counts it to measure the hub share.
func (lg *LotusGraph) NonHubSubgraph() *graph.Graph {
	n := lg.numVertices
	hub := int(lg.HubCount)
	sub := n - hub
	if sub <= 0 {
		return graph.FromEdges(nil, graph.BuildOptions{})
	}
	edges := make([]graph.Edge, 0, lg.NHE.NumEdges())
	for v := hub; v < n; v++ {
		for _, u := range lg.NHE.Neighbors(uint32(v)) {
			edges = append(edges, graph.Edge{U: u - uint32(hub), V: uint32(v) - uint32(hub)})
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

// checkPreprocessInput validates the preprocessing input contract
// shared by both implementations.
func checkPreprocessInput(g *graph.Graph) error {
	if g == nil {
		return ErrNilGraph
	}
	if g.Oriented {
		return ErrOriented
	}
	return nil
}

// mustLotusGraph backs the thin panicking wrappers kept for
// known-good inputs.
func mustLotusGraph(lg *LotusGraph, err error) *LotusGraph {
	if err != nil {
		panic(err)
	}
	return lg
}

// TryPreprocess builds the LotusGraph from a symmetric simple graph,
// implementing Algorithm 2: relabel (reorder.Lotus), then split each
// vertex's N^< into hub and non-hub neighbours and populate the H2H
// bit array — TryPreprocessRange over [0, |V|), the walk every shard
// of a grid runs over its own range. IDs are mapped through the
// relabeling on the fly rather than materializing the relabeled graph
// first (measured 1.5-2.4x faster; EXPERIMENTS.md, "Preprocessing
// strategies"). PreprocessTime covers both steps.
//
// Invalid inputs (nil or oriented graphs) are rejected with an error;
// the serving path depends on this never panicking.
func TryPreprocess(g *graph.Graph, opt Options) (*LotusGraph, error) {
	if err := checkPreprocessInput(g); err != nil {
		return nil, err
	}
	t0 := time.Now()
	n := g.NumVertices()
	ra := reorder.Lotus(g, reorder.LotusOptions{HubCount: opt.EffectiveHubCount(n), FrontFraction: opt.FrontFraction})
	opt.Metrics.AddDuration(obs.PreprocessRelabelNS, time.Since(t0))
	s, err := TryPreprocessRange(g, opt, ra, VertexRange{Hi: uint32(n)})
	if err != nil {
		return nil, err
	}
	s.PreprocessTime = time.Since(t0)
	opt.Metrics.AddDuration(obs.PreprocessNS, s.PreprocessTime)
	return &LotusGraph{LotusShard: s, Relabeling: ra}, nil
}

// Preprocess is the thin panicking wrapper over TryPreprocess, kept
// for call sites whose inputs are built in-process (generators,
// benchmarks, the analytics helpers).
func Preprocess(g *graph.Graph, opt Options) *LotusGraph {
	return mustLotusGraph(TryPreprocess(g, opt))
}

// Validate checks the structural invariants of the LotusGraph: a
// shard over every vertex that passes LotusShard.Validate, and a
// relabeling that is a permutation of [0, |V|). Intended for tests
// and for ReadLotusGraph.
func (lg *LotusGraph) Validate() error {
	n := uint32(lg.numVertices)
	if lg.Range != (VertexRange{Hi: n}) {
		return fmt.Errorf("rows cover [%d, %d), not every vertex [0, %d)", lg.Range.Lo, lg.Range.Hi, n)
	}
	if err := lg.LotusShard.Validate(); err != nil {
		return err
	}
	// Relabeling must be a permutation of [0, n): anything else makes
	// code that maps original IDs through it index out of range or
	// silently alias two vertices (corrupt files are the realistic
	// source — ReadLotusGraph relies on this check).
	if len(lg.Relabeling) != lg.numVertices {
		return fmt.Errorf("relabeling has %d entries for %d vertices", len(lg.Relabeling), lg.numVertices)
	}
	seen := make([]uint64, (lg.numVertices+63)/64)
	for old, nw := range lg.Relabeling {
		if nw >= n {
			return fmt.Errorf("relabeling[%d] = %d out of range", old, nw)
		}
		if seen[nw>>6]&(1<<(nw&63)) != 0 {
			return fmt.Errorf("relabeling maps two vertices to %d", nw)
		}
		seen[nw>>6] |= 1 << (nw & 63)
	}
	return nil
}
