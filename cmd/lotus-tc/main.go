// Command lotus-tc counts triangles in a graph with a selectable
// algorithm and reports the LOTUS execution breakdown.
//
// Usage:
//
//	lotus-tc -graph web.lotg                      # LOTUS, default options
//	lotus-tc -graph web.lotg -algo forward        # GAP-style baseline
//	lotus-tc -edgelist graph.txt -algo lotus -hubs 65536
//	lotus-tc -rmat 18 -algo lotus                 # generate on the fly
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lotustc"
	"lotustc/internal/core"
	"lotustc/internal/engine"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotus-tc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "binary LOTG graph file")
		edgeList  = fs.String("edgelist", "", "textual edge list file")
		rmat      = fs.Uint("rmat", 0, "generate an R-MAT graph of this scale instead of loading")
		ef        = fs.Int("edgefactor", 16, "R-MAT edge factor")
		seed      = fs.Int64("seed", 1, "R-MAT seed")
		algo      = fs.String("algo", "lotus", "algorithm (see -algos); \"auto\" probes the graph and picks one")
		algos     = fs.Bool("algos", false, "list algorithms")
		tuneAlgo  = fs.String("tune-algo", "", "pin the algorithm -algo auto routes to (ablation)")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		hubs      = fs.Int("hubs", 0, "LOTUS hub count (0 = adaptive, paper default 65536)")
		shards    = fs.Int("shards", 0, "LOTUS shard grid dimension p (0 or 1 = the flat structure); applies to lotus and to auto when it routes to lotus")
		k         = fs.Int("k", 3, "clique size: 3 counts triangles; k > 3 counts k-cliques")
		timeout   = fs.Duration("timeout", 0, "abort the count after this long (0 = no limit)")
		verbose   = fs.Bool("v", false, "print breakdown and class split")
		report    = fs.String("report", "text", "output format: text | json (run report, schema in DESIGN.md)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *report != "text" && *report != "json" {
		fmt.Fprintf(stderr, "lotus-tc: unknown -report format %q (want text or json)\n", *report)
		return 2
	}
	if *pprofAddr != "" {
		addr, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lotus-tc: -pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "lotus-tc: debug server on http://%s/debug/pprof/\n", addr)
	}

	if *algos {
		for _, a := range lotustc.Algorithms() {
			fmt.Fprintln(stdout, a)
		}
		return 0
	}

	// Reject an unknown -algo before the (possibly expensive) graph
	// load or generation.
	if _, err := engine.Lookup(*algo); err != nil {
		fmt.Fprintf(stderr, "lotus-tc: %v\n", err)
		return 1
	}
	// -shards is range-checked up front, and with a -algo that never
	// counts over a LOTUS grid it is rejected rather than silently
	// ignored.
	if *shards < 0 || *shards > core.MaxGrid {
		fmt.Fprintf(stderr, "lotus-tc: -shards %d must be in [0, %d]\n", *shards, core.MaxGrid)
		return 2
	}
	if *shards > 0 && *algo != "lotus" && *algo != "auto" {
		fmt.Fprintf(stderr, "lotus-tc: -shards applies to lotus and auto, not %q\n", *algo)
		return 2
	}
	if *shards > 1 && *k > 3 {
		fmt.Fprintln(stderr, "lotus-tc: -shards covers triangle counting only (k = 3); k-cliques count over the flat structure")
		return 2
	}
	if *tuneAlgo != "" {
		if *algo != "auto" {
			fmt.Fprintf(stderr, "lotus-tc: -tune-algo applies to -algo auto, not %q\n", *algo)
			return 2
		}
		if _, err := engine.Lookup(*tuneAlgo); err != nil {
			fmt.Fprintf(stderr, "lotus-tc: -tune-algo: %v\n", err)
			return 1
		}
	}

	var g *lotustc.Graph
	var err error
	var source string
	switch {
	case *rmat > 0:
		g = lotustc.RMAT(*rmat, *ef, *seed)
		source = fmt.Sprintf("rmat-%d/ef-%d/seed-%d", *rmat, *ef, *seed)
	case *graphPath != "":
		g, err = lotustc.LoadGraph(*graphPath)
		source = "file:" + *graphPath
	case *edgeList != "":
		var f *os.File
		f, err = os.Open(*edgeList)
		if err == nil {
			g, err = graph.ReadEdgeList(f)
			f.Close()
		}
		source = "edgelist:" + *edgeList
	default:
		fmt.Fprintln(stderr, "lotus-tc: need -graph, -edgelist or -rmat")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "lotus-tc: %v\n", err)
		return 1
	}

	if *k > 3 {
		if *report == "json" {
			fmt.Fprintln(stderr, "lotus-tc: -report json covers triangle counting only (k = 3)")
			return 2
		}
		cliques, err := lotustc.CountKCliques(g, *k, lotustc.Options{
			Algorithm: lotustc.Algorithm(*algo), Workers: *workers, HubCount: *hubs,
		})
		if err != nil {
			fmt.Fprintf(stderr, "lotus-tc: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
		fmt.Fprintf(stdout, "%d-cliques: %d\n", *k, cliques)
		return 0
	}

	res, err := lotustc.Count(g, lotustc.Options{
		Algorithm:      lotustc.Algorithm(*algo),
		Workers:        *workers,
		HubCount:       *hubs,
		Shards:         *shards,
		TuneAlgorithm:  lotustc.Algorithm(*tuneAlgo),
		Timeout:        *timeout,
		CollectMetrics: *report == "json",
	})
	if *report == "json" {
		rr := obs.NewRunReport("lotus-tc")
		rr.Graph = obs.GraphInfo{Source: source, Vertices: int64(g.NumVertices()), Edges: g.NumEdges()}
		rr.Algorithm = *algo
		if err != nil {
			rr.Error = err.Error()
			rr.WriteJSON(stdout)
			return 1
		}
		fillRunReport(rr, res)
		if werr := rr.WriteJSON(stdout); werr != nil {
			fmt.Fprintf(stderr, "lotus-tc: %v\n", werr)
			return 1
		}
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "lotus-tc: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Fprintf(stdout, "algorithm: %s\n", res.Algorithm)
	// The effective algorithm is what actually counted: the tuner's
	// routed choice under -algo auto, res.Algorithm otherwise.
	effective := res.Algorithm
	if res.Decision != nil {
		effective = lotustc.Algorithm(res.Decision.Algorithm)
		fmt.Fprintf(stdout, "auto-tuned: %s — %s\n", res.Decision.Algorithm, res.Decision.Reason)
	}
	fmt.Fprintf(stdout, "triangles: %d\n", res.Triangles)
	fmt.Fprintf(stdout, "end-to-end: %v (%.0f edges/s)\n", res.Elapsed, res.TCRate(g.NumEdges()))
	if *verbose && effective == lotustc.AlgoLotus {
		fmt.Fprintf(stdout, "breakdown: preprocess %v, HHH+HHN %v, HNN %v, NNN %v\n",
			res.Preprocess, res.Phase1, res.HNNPhase, res.NNNPhase)
		total := float64(res.Triangles)
		if total < 1 {
			total = 1
		}
		fmt.Fprintf(stdout, "classes: HHH %d, HHN %d, HNN %d, NNN %d (hub share %.1f%%)\n",
			res.HHH, res.HHN, res.HNN, res.NNN, 100*float64(res.HubTriangles())/total)
	}
	return 0
}

// fillRunReport copies a count Result into the machine-readable
// report. Phase rows and the class split are meaningful for the LOTUS
// kernels only; baselines carry their timings in the metrics map
// ("baseline.preprocess.ns", "baseline.count.ns").
func fillRunReport(rr *obs.RunReport, res *lotustc.Result) {
	rr.Triangles = res.Triangles
	rr.ElapsedNS = res.Elapsed.Nanoseconds()
	rr.Metrics = res.Metrics
	rr.Decision = res.Decision
	if w, ok := res.Metrics["run.workers"]; ok {
		rr.Workers = int(w)
	}
	// Phase rows follow the algorithm that actually counted — under
	// AlgoAuto, the tuner's routed choice.
	effective := res.Algorithm
	if res.Decision != nil {
		effective = lotustc.Algorithm(res.Decision.Algorithm)
	}
	if effective == lotustc.AlgoLotus {
		rr.Phases = []obs.PhaseNS{
			{Name: "preprocess", NS: res.Preprocess.Nanoseconds()},
			{Name: "phase1", NS: res.Phase1.Nanoseconds()},
			{Name: "hnn", NS: res.HNNPhase.Nanoseconds()},
			{Name: "nnn", NS: res.NNNPhase.Nanoseconds()},
		}
		rr.Classes = &obs.Classes{HHH: res.HHH, HHN: res.HHN, HNN: res.HNN, NNN: res.NNN}
	}
}
