// Package lotustc is a Go reproduction of "LOTUS: Locality Optimizing
// Triangle Counting" (Koohi Esfahani, Kilpatrick, Vandierendonck,
// PPoPP 2022). It provides:
//
//   - LOTUS itself: a structure-aware triangle counter for power-law
//     graphs that separates hub from non-hub edges into bespoke,
//     cache-friendly structures (H2H bit array, 16-bit HE sub-graph,
//     32-bit NHE sub-graph) and counts the four triangle classes
//     (HHH/HHN/HNN/NNN) in three locality-optimized phases.
//   - The baselines the paper compares against (Forward/GAP,
//     edge-iterator/GraphGrind, GBBS-style, BBTC-style, node
//     iterator).
//   - Deterministic graph generators standing in for the paper's
//     datasets, graph I/O, topology statistics, and the paper's
//     streaming hub TC future-work extension (§6.2).
//
// Quick start:
//
//	g := lotustc.RMAT(18, 16, 42)
//	res, err := lotustc.Count(g, lotustc.Options{Algorithm: lotustc.AlgoLotus})
//	fmt.Println(res.Triangles)
package lotustc

import (
	"context"
	"time"

	"lotustc/internal/engine"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
)

// Graph is the CSX graph type. Build one with FromEdges, a generator,
// or LoadGraph.
type Graph = graph.Graph

// Edge is one undirected edge.
type Edge = graph.Edge

// FromEdges builds a simple symmetric graph from an edge list:
// duplicates collapse, self loops are dropped. numVertices pins |V|
// (0 infers it from the largest ID).
func FromEdges(edges []Edge, numVertices int) *Graph {
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: numVertices})
}

// LoadGraph reads a binary graph file written by SaveGraph.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes g to a binary graph file.
func SaveGraph(g *Graph, path string) error { return g.SaveFile(path) }

// Algorithm names a triangle counting algorithm.
type Algorithm string

// The available algorithms. AlgoLotus is the paper's contribution;
// the others are the §5.1.4 comparators.
const (
	AlgoLotus         Algorithm = "lotus"
	AlgoForward       Algorithm = "forward"        // GAP-style, merge join
	AlgoForwardBinary Algorithm = "forward-binary" // binary-search intersection
	AlgoForwardHash   Algorithm = "forward-hash"   // Forward-hashed
	AlgoEdgeIterator  Algorithm = "edge-iterator"  // GraphGrind-style
	AlgoNodeIterator  Algorithm = "node-iterator"
	AlgoGBBS          Algorithm = "gbbs" // edge-parallel Forward
	AlgoBBTC          Algorithm = "bbtc" // block-based 2-D partitioned
	// The classic algorithms §6.1 surveys.
	AlgoNewVertexListing Algorithm = "new-vertex-listing" // Latapy bitmap
	AlgoNodeIteratorCore Algorithm = "node-iterator-core" // Schank-Wagner
	AlgoAYZ              Algorithm = "ayz"                // Alon-Yuster-Zwick
	// AlgoForwardDegeneracy orients by k-core peeling order,
	// bounding every forward list by the graph's degeneracy.
	AlgoForwardDegeneracy Algorithm = "forward-degeneracy"
	// AlgoCoverEdge counts by BFS-level cover edges (Bader et al.):
	// no hub structures, strongest on sparse flat graphs (meshes,
	// road networks) where LOTUS's relabeling buys nothing.
	AlgoCoverEdge Algorithm = "cover-edge"
	// AlgoAuto probes the graph's structure (degree skew, hub edge
	// coverage, H2H density) and routes to the algorithm the shape
	// favors; the choice lands in Result.Decision.
	AlgoAuto Algorithm = "auto"
)

// Algorithms lists every available algorithm, in the engine's
// registration order. Algorithms registered with engine.Register —
// including third-party kernels — appear here automatically.
func Algorithms() []Algorithm {
	names := engine.Algorithms()
	algos := make([]Algorithm, len(names))
	for i, n := range names {
		algos[i] = Algorithm(n)
	}
	return algos
}

// Options configure Count.
type Options struct {
	// Algorithm defaults to AlgoLotus.
	Algorithm Algorithm
	// Workers bounds parallelism; 0 uses GOMAXPROCS.
	Workers int
	// HubCount overrides the LOTUS hub count (0 = adaptive:
	// min(64K, |V|/64), the paper's 64K at scale).
	HubCount int
	// FrontFraction overrides the §4.3.1 relabeling front block
	// (0 = the paper's 10%).
	FrontFraction float64
	// Shards is the grid dimension p of AlgoLotus: the relabeled ID
	// space is cut into p ranges, one LOTUS structure is built per
	// range, and the count runs by block triple (0 or 1 = a single
	// block, the flat structure). Totals and the class split are the
	// same at every p. AlgoAuto passes it on when it routes to
	// AlgoLotus; other algorithms ignore it.
	Shards int
	// TuneAlgorithm pins the algorithm AlgoAuto routes to, for
	// ablation (e.g. AlgoLotus to measure what the tuner saved).
	// Other algorithms ignore it.
	TuneAlgorithm Algorithm
	// Timeout bounds the whole count (0 = none). On expiry the count
	// aborts cooperatively and Count returns
	// context.DeadlineExceeded.
	Timeout time.Duration
	// CollectMetrics populates Result.Metrics with the per-phase
	// counter snapshot (scheduler claims, structure touch counts, ...).
	// Off by default; the counting hot paths pay nothing when off.
	CollectMetrics bool
}

// Result reports one count. The phase fields are populated for the
// LOTUS algorithms (Preprocess, Phase1, HNNPhase, NNNPhase) and for
// cover-edge (Preprocess, CountPhase) only.
type Result struct {
	Algorithm Algorithm
	Triangles uint64
	// Elapsed is the end-to-end time including preprocessing, the
	// Table 5 accounting.
	Elapsed time.Duration
	// Preprocess is the LOTUS graph construction time (Fig 6).
	Preprocess time.Duration
	// Phase wall times (Fig 6).
	Phase1, HNNPhase, NNNPhase time.Duration
	// CountPhase is the single counting wall time of an algorithm
	// whose count does not split into the three LOTUS phases: the
	// cover-edge count (AlgoCoverEdge, or AlgoAuto routed there).
	CountPhase time.Duration
	// Triangle classes (Fig 7).
	HHH, HHN, HNN, NNN uint64
	// Metrics is the flat observability snapshot collected when
	// Options.CollectMetrics was set, nil otherwise. Keys are dotted
	// counter names ("phase1.claims", "lotus.h2h_bits", ...); the full
	// catalogue is documented in DESIGN.md.
	Metrics map[string]int64
	// Decision is the structural auto-tuner's routing record — the
	// chosen algorithm, the policy reason, and every probe stat the
	// decision read. Populated by AlgoAuto only.
	Decision *TuneDecision
}

// TuneDecision is the auto-tuner's routing record (see AlgoAuto).
type TuneDecision = obs.TuneDecision

// HubTriangles returns triangles containing at least one hub
// (meaningful for the LOTUS algorithms).
func (r *Result) HubTriangles() uint64 { return r.HHH + r.HHN + r.HNN }

// TCRate returns the end-to-end triangle counting rate in edges per
// second, the metric of Fig 1.
func (r *Result) TCRate(edges int64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(edges) / r.Elapsed.Seconds()
}

// Count counts the triangles of g with the selected algorithm. The
// graph must be symmetric (as built by FromEdges or the generators).
// It is CountContext with a background context; use Options.Timeout
// or CountContext directly to bound the run.
func Count(g *Graph, opt Options) (*Result, error) {
	return CountContext(context.Background(), g, opt)
}

// CountContext is Count with cooperative cancellation: when ctx is
// cancelled (or Options.Timeout expires) the counting kernels stop at
// their next scheduling boundary and the context's error is returned.
// A cancelled count never returns a partial Result.
func CountContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	rep, err := engine.Run(ctx, g, engine.Spec{
		Algorithm:      string(opt.Algorithm),
		Workers:        opt.Workers,
		Timeout:        opt.Timeout,
		CollectMetrics: opt.CollectMetrics,
		Params: engine.Params{
			HubCount:      opt.HubCount,
			FrontFraction: opt.FrontFraction,
			Shards:        opt.Shards,
			TuneAlgorithm: string(opt.TuneAlgorithm),
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:  Algorithm(rep.Algorithm),
		Triangles:  rep.Triangles,
		Elapsed:    rep.Elapsed,
		Preprocess: rep.Phase(engine.PhasePreprocess),
		Phase1:     rep.Phase(engine.PhaseHub),
		HNNPhase:   rep.Phase(engine.PhaseHNN),
		NNNPhase:   rep.Phase(engine.PhaseNNN),
		CountPhase: rep.Phase(engine.PhaseCount),
		HHH:        rep.HHH,
		HHN:        rep.HHN,
		HNN:        rep.HNN,
		NNN:        rep.NNN,
		Metrics:    rep.Metrics,
		Decision:   rep.Decision,
	}, nil
}
