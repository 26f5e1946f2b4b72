package harness

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lotustc/internal/approx"
	"lotustc/internal/core"
	"lotustc/internal/engine"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
)

// BenchAlgorithms is the Table 5 comparator set BuildBenchReport
// sweeps, in display order.
var BenchAlgorithms = []string{"bbtc", "edge-iterator", "forward", "gbbs", "lotus"}

// benchKernelVariants are the labeled LOTUS kernel-ablation runs
// appended to every dataset's sweep: phase-1 scalar vs word and
// NNN merge vs adaptive, each pinned so the pairs differ in
// exactly one knob. Their RunReport Algorithm field carries the
// variant label (e.g. "lotus/phase1=word").
var benchKernelVariants = []struct {
	label  string
	params engine.Params
}{
	{"lotus/phase1=scalar", engine.Params{Phase1Kernel: "scalar", IntersectKernel: "merge"}},
	{"lotus/phase1=word", engine.Params{Phase1Kernel: "word", IntersectKernel: "merge"}},
	{"lotus/intersect=merge", engine.Params{Phase1Kernel: "scalar", IntersectKernel: "merge"}},
	{"lotus/intersect=adaptive", engine.Params{Phase1Kernel: "scalar", IntersectKernel: "adaptive"}},
}

// benchShardVariants sweep the sharded kernel's grid dimension so the
// BENCH artifact records the p=1/2/4 scaling of the 2D path against
// flat LOTUS on the same datasets.
var benchShardVariants = []struct {
	label  string
	params engine.Params
}{
	{"lotus-sharded/p=1", engine.Params{Shards: 1}},
	{"lotus-sharded/p=2", engine.Params{Shards: 2}},
	{"lotus-sharded/p=4", engine.Params{Shards: 4}},
}

// benchTunerAlgorithms is the auto-vs-fixed sweep appended per
// dataset: every fixed algorithm the structural tuner can route to,
// plus "auto" itself. Rows are labeled "tune/<algo>" and timed
// best-of-tunerBestOf so the auto-vs-fixed margins in the BENCH
// artifact reflect the routing choice, not timer noise; the auto row
// carries the tuner's Decision block (routed algorithm, policy
// reason, probe stats).
var benchTunerAlgorithms = []string{"lotus", "cover-edge", "degree-partition", "auto"}

const tunerBestOf = 3

// BuildBenchReport runs the Table 5 comparators over the suite's
// datasets with metrics collection on and folds every run into one
// machine-readable BenchReport (the BENCH_*.json artifact). A failed
// or cancelled run becomes a RunReport with Error set rather than
// aborting the sweep, so partial artifacts remain diffable.
func BuildBenchReport(s Suite, workers int) *obs.BenchReport {
	br := obs.NewBenchReport("lotus-bench", fmt.Sprintf("scale-%d/ef-%d", s.Scale, s.EdgeFactor))
	for _, d := range s.Datasets() {
		if s.Context().Err() != nil {
			break
		}
		g := d.Build()
		oneRun := func(algo, label string, params engine.Params) {
			rr := obs.RunReport{
				Schema:    obs.SchemaRun,
				Tool:      br.Tool,
				Timestamp: br.Timestamp,
				Env:       br.Env,
				Graph:     obs.GraphInfo{Source: d.Name, Vertices: int64(g.NumVertices()), Edges: g.NumEdges()},
				Algorithm: label,
			}
			rep, err := engine.Run(s.Context(), g, engine.Spec{
				Algorithm:      algo,
				Workers:        workers,
				CollectMetrics: true,
				Params:         params,
			})
			if err != nil {
				rr.Error = err.Error()
				br.Runs = append(br.Runs, rr)
				return
			}
			rr.Workers = int(rep.Metrics["run.workers"])
			rr.Triangles = rep.Triangles
			rr.ElapsedNS = rep.Elapsed.Nanoseconds()
			for _, p := range rep.Phases {
				rr.Phases = append(rr.Phases, obs.PhaseNS{Name: p.Name, NS: p.Duration.Nanoseconds()})
			}
			if algo == "lotus" || algo == "lotus-sharded" {
				rr.Classes = &obs.Classes{HHH: rep.HHH, HHN: rep.HHN, HNN: rep.HNN, NNN: rep.NNN}
			}
			rr.Metrics = rep.Metrics
			br.Runs = append(br.Runs, rr)
		}
		for _, algo := range BenchAlgorithms {
			params := engine.Params{}
			if algo == "lotus" {
				params.Phase1Kernel = s.Phase1Kernel
				params.IntersectKernel = s.IntersectKernel
			}
			oneRun(algo, algo, params)
		}
		if s.Shards > 0 {
			oneRun("lotus-sharded", fmt.Sprintf("lotus-sharded/p=%d", s.Shards),
				engine.Params{Shards: s.Shards})
		}
		for _, v := range benchKernelVariants {
			if s.Context().Err() != nil {
				break
			}
			oneRun("lotus", v.label, v.params)
		}
		for _, v := range benchShardVariants {
			if s.Context().Err() != nil {
				break
			}
			oneRun("lotus-sharded", v.label, v.params)
		}
		for _, algo := range benchTunerAlgorithms {
			if s.Context().Err() != nil {
				break
			}
			tunerRun(br, s, d, g, workers, algo)
		}
	}
	// Streaming-ingest throughput rows (edges/sec, exact vs approx) on
	// the first dataset only: the point is tracking the serving stream
	// path's ingest rate across PRs, not another full sweep.
	if ds := s.Datasets(); len(ds) > 0 && s.Context().Err() == nil {
		streamIngestRuns(br, ds[0], ds[0].Build())
	}
	// Serving-layer residency rows: resident graphs per byte budget and
	// warm-hit latency, raw vs compressed cache (the PR 9 metric).
	if s.Context().Err() == nil {
		serveCacheRuns(br, workers)
	}
	return br
}

// tunerRun appends one auto-vs-fixed sweep row: algo run
// tunerBestOf times on g, keeping the fastest. A capability mismatch
// (the kernel declares it cannot run this graph) becomes an explicit
// Skipped row, so the artifact distinguishes "legitimately did not
// run" from a failure; any other error is a real Error row.
func tunerRun(br *obs.BenchReport, s Suite, d Dataset, g *graph.Graph, workers int, algo string) {
	rr := obs.RunReport{
		Schema:    obs.SchemaRun,
		Tool:      br.Tool,
		Timestamp: br.Timestamp,
		Env:       br.Env,
		Graph:     obs.GraphInfo{Source: d.Name, Vertices: int64(g.NumVertices()), Edges: g.NumEdges()},
		Algorithm: "tune/" + algo,
	}
	var best *engine.Report
	for i := 0; i < tunerBestOf; i++ {
		if s.Context().Err() != nil {
			break
		}
		rep, err := engine.Run(s.Context(), g, engine.Spec{
			Algorithm:      algo,
			Workers:        workers,
			CollectMetrics: true,
		})
		if err != nil {
			if errors.Is(err, engine.ErrNeedsSymmetric) {
				rr.Skipped = err.Error()
			} else {
				rr.Error = err.Error()
			}
			br.Runs = append(br.Runs, rr)
			return
		}
		if best == nil || rep.Elapsed < best.Elapsed {
			best = rep
		}
	}
	if best == nil {
		return // context expired before any attempt; the sweep is ending
	}
	rr.Workers = int(best.Metrics["run.workers"])
	rr.Triangles = best.Triangles
	rr.ElapsedNS = best.Elapsed.Nanoseconds()
	for _, p := range best.Phases {
		rr.Phases = append(rr.Phases, obs.PhaseNS{Name: p.Name, NS: p.Duration.Nanoseconds()})
	}
	rr.Metrics = best.Metrics
	rr.Decision = best.Decision
	br.Runs = append(br.Runs, rr)
}

// streamIngestRuns appends two streaming-ingest rows for one dataset:
// the exact core.Streaming counter (top-degree hubs, NNN counting on)
// and the Triest estimator at a 1 MiB budget, each timed over a full
// single-threaded edge replay. Metrics carry stream.edges_per_sec and
// the resident footprint so BENCH artifacts diff both across PRs.
func streamIngestRuns(br *obs.BenchReport, d Dataset, g *graph.Graph) {
	edges := g.Edges()
	row := func(label string, triangles uint64, elapsed time.Duration, metrics map[string]int64) {
		if elapsed > 0 {
			metrics["stream.edges_per_sec"] = int64(float64(len(edges)) / elapsed.Seconds())
		}
		br.Runs = append(br.Runs, obs.RunReport{
			Schema:    obs.SchemaRun,
			Tool:      br.Tool,
			Timestamp: br.Timestamp,
			Env:       br.Env,
			Graph:     obs.GraphInfo{Source: d.Name, Vertices: int64(g.NumVertices()), Edges: g.NumEdges()},
			Algorithm: label,
			Workers:   1,
			Triangles: triangles,
			ElapsedNS: elapsed.Nanoseconds(),
			Metrics:   metrics,
		})
	}

	hubs := topDegreeHubs(g, core.Options{}.EffectiveHubCount(g.NumVertices()))
	if sc, err := core.NewStreaming(g.NumVertices(), hubs); err == nil {
		sc.CountNonHub = true
		start := time.Now()
		for _, e := range edges {
			sc.AddEdge(e.U, e.V)
		}
		elapsed := time.Since(start)
		hhh, hhn, hnn, nnn := sc.Classes()
		row("stream-ingest/exact", hhh+hhn+hnn+nnn, elapsed,
			map[string]int64{"stream.memory_bytes": sc.MemoryBytes()})
	} else {
		// The counter refused this dataset's shape: record the skip
		// explicitly instead of silently dropping the row, so a BENCH
		// diff shows "skipped" rather than a vanished series.
		br.Runs = append(br.Runs, obs.RunReport{
			Schema:    obs.SchemaRun,
			Tool:      br.Tool,
			Timestamp: br.Timestamp,
			Env:       br.Env,
			Graph:     obs.GraphInfo{Source: d.Name, Vertices: int64(g.NumVertices()), Edges: g.NumEdges()},
			Algorithm: "stream-ingest/exact",
			Skipped:   err.Error(),
		})
	}

	const budget = 1 << 20
	tr := approx.NewTriest(approx.ReservoirForBudget(budget), 42)
	start := time.Now()
	for _, e := range edges {
		tr.AddEdge(e.U, e.V)
	}
	elapsed := time.Since(start)
	row("stream-ingest/approx", uint64(tr.Estimate()), elapsed, map[string]int64{
		"stream.memory_bytes": tr.MemoryBytes(),
		"stream.error_bound":  int64(tr.ErrorBound(0.95)),
	})
}

// topDegreeHubs picks the k highest-degree vertex IDs — the hub
// choice the streaming counter's H2H bit matrix is designed around.
func topDegreeHubs(g *graph.Graph, k int) []uint32 {
	deg := g.Degrees()
	ids := make([]uint32, len(deg))
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
