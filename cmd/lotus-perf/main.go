// Command lotus-perf analyzes the memory behaviour of the Forward
// and LOTUS counting kernels on a graph without hardware counters:
// it replays their exact reference streams through the machine models
// (modeled LLC/DTLB misses, branch mispredictions, estimated cycles —
// the paper's Fig 4/5) and through exact LRU stack analysis
// (miss-ratio curves at every cache size at once).
//
// Usage:
//
//	lotus-perf -rmat 14                    # events on the scaled machine
//	lotus-perf -graph web.lotg -machine skylakex
//	lotus-perf -rmat 12 -mrc               # miss-ratio curves
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/hwsim"
	"lotustc/internal/obs"
	"lotustc/internal/perf"
	"lotustc/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotus-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "binary LOTG graph file")
		rmat      = fs.Uint("rmat", 0, "generate an R-MAT graph of this scale instead of loading")
		ef        = fs.Int("edgefactor", 16, "R-MAT edge factor")
		seed      = fs.Int64("seed", 1, "R-MAT seed")
		machine   = fs.String("machine", "scaled", "machine model: scaled | skylakex | haswell | epyc")
		hubs      = fs.Int("hubs", 0, "LOTUS hub count (0 = adaptive)")
		mrc       = fs.Bool("mrc", false, "print exact LRU miss-ratio curves instead of machine events")
		timeout   = fs.Duration("timeout", 0, "abort the preprocessing after this long (0 = no limit)")
		report    = fs.String("report", "text", "output format: text | json (machine-event report, schema in DESIGN.md)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		phase1    = fs.String("phase1", "scalar", "phase-1 kernel to replay for LOTUS: scalar | word")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *phase1 != "scalar" && *phase1 != "word" {
		fmt.Fprintf(stderr, "lotus-perf: unknown -phase1 kernel %q (want scalar or word; the runtime's auto mode mixes the two per row)\n", *phase1)
		return 2
	}
	if *report != "text" && *report != "json" {
		fmt.Fprintf(stderr, "lotus-perf: unknown -report format %q (want text or json)\n", *report)
		return 2
	}
	if *report == "json" && *mrc {
		fmt.Fprintln(stderr, "lotus-perf: -report json covers machine events only (drop -mrc)")
		return 2
	}
	if *pprofAddr != "" {
		addr, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lotus-perf: -pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "lotus-perf: debug server on http://%s/debug/pprof/\n", addr)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var g *graph.Graph
	var err error
	var source string
	switch {
	case *rmat > 0:
		g = gen.RMAT(gen.DefaultRMAT(*rmat, *ef, *seed))
		source = fmt.Sprintf("rmat-%d/ef-%d/seed-%d", *rmat, *ef, *seed)
	case *graphPath != "":
		g, err = graph.LoadFile(*graphPath)
		source = "file:" + *graphPath
	default:
		fmt.Fprintln(stderr, "lotus-perf: need -graph or -rmat")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "lotus-perf: %v\n", err)
		return 1
	}

	pool := sched.NewPool(0).Bind(ctx)
	defer pool.Release()
	lg, err := core.TryPreprocess(g, core.Options{HubCount: *hubs, Pool: pool})
	if err = cmp.Or(ctx.Err(), err); err != nil {
		fmt.Fprintf(stderr, "lotus-perf: %v\n", err)
		return 1
	}
	if *mrc {
		caps := []int{1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 17, 1 << 20}
		fwd := perf.ForwardMRC(g, caps)
		lot := perf.LotusMRC(lg, caps)
		fmt.Fprintf(stdout, "%-10s", "capacity")
		for _, c := range caps {
			fmt.Fprintf(stdout, " %9dKB", c*64/1024)
		}
		fmt.Fprintln(stdout)
		printCurve := func(name string, mrc []float64) {
			fmt.Fprintf(stdout, "%-10s", name)
			for _, m := range mrc {
				fmt.Fprintf(stdout, " %10.4f%%", 100*m)
			}
			fmt.Fprintln(stdout)
		}
		printCurve("forward", fwd)
		printCurve("lotus", lot)
		return 0
	}

	var cfg hwsim.MachineConfig
	switch *machine {
	case "skylakex":
		cfg = hwsim.SkyLakeX()
	case "haswell":
		cfg = hwsim.Haswell()
	case "epyc":
		cfg = hwsim.Epyc()
	case "scaled":
		cfg = hwsim.MachineConfig{
			Name: "scaled", L1Bytes: 4 << 10, L2Bytes: 32 << 10, L3Bytes: 256 << 10,
			L1Ways: 8, L2Ways: 8, L3Ways: 11, TLBEntries: 64,
		}
	default:
		fmt.Fprintf(stderr, "lotus-perf: unknown machine %q\n", *machine)
		return 2
	}

	fwd := perf.InstrumentedForward(g, cfg)
	lot := perf.InstrumentedLotusKernel(lg, cfg, *phase1 == "word")
	if fwd.Triangles != lot.Triangles {
		fmt.Fprintf(stderr, "lotus-perf: count mismatch %d vs %d\n", fwd.Triangles, lot.Triangles)
		return 1
	}
	if *report == "json" {
		rr := obs.NewRunReport("lotus-perf")
		rr.Graph = obs.GraphInfo{Source: source, Vertices: int64(g.NumVertices()), Edges: g.NumEdges()}
		rr.Algorithm = "lotus-vs-forward/" + cfg.Name
		rr.Triangles = fwd.Triangles
		events := func(e perf.Events) map[string]uint64 {
			return map[string]uint64{
				"llc_misses":    e.LLCMisses,
				"dtlb_misses":   e.TLBMisses,
				"mem_accesses":  e.MemAccesses,
				"instructions":  e.Instructions,
				"branch_misses": e.BranchMisses,
				"est_cycles":    e.EstimatedCycles,
			}
		}
		rr.Events = map[string]map[string]uint64{"forward": events(fwd), "lotus": events(lot)}
		if err := rr.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "lotus-perf: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges, %d triangles; machine %s\n",
		g.NumVertices(), g.NumEdges(), fwd.Triangles, cfg.Name)
	fmt.Fprintf(stdout, "%-18s %14s %14s %10s\n", "event", "forward", "lotus", "reduction")
	row := func(name string, a, b uint64) {
		r := 0.0
		if b > 0 {
			r = float64(a) / float64(b)
		}
		fmt.Fprintf(stdout, "%-18s %14d %14d %9.2fx\n", name, a, b, r)
	}
	row("LLC misses", fwd.LLCMisses, lot.LLCMisses)
	row("DTLB misses", fwd.TLBMisses, lot.TLBMisses)
	row("memory accesses", fwd.MemAccesses, lot.MemAccesses)
	row("instructions~", fwd.Instructions, lot.Instructions)
	row("branch misses", fwd.BranchMisses, lot.BranchMisses)
	row("est. cycles", fwd.EstimatedCycles, lot.EstimatedCycles)
	return 0
}
