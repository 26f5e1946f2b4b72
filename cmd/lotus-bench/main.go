// Command lotus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lotus-bench -list
//	lotus-bench -exp table5 [-scale 16] [-edgefactor 16] [-workers 0]
//	lotus-bench -all [-scale 13]
//	lotus-bench -report json -scale 13 -o BENCH.json   # machine-readable sweep
//
// Each experiment prints the rows/series of the corresponding paper
// artifact together with the paper's reported averages for
// comparison; EXPERIMENTS.md records one full run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"lotustc/internal/core"
	"lotustc/internal/harness"
	"lotustc/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotus-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "", "experiment ID to run (see -list)")
		all        = fs.Bool("all", false, "run every experiment")
		list       = fs.Bool("list", false, "list experiment IDs")
		scale      = fs.Uint("scale", 16, "R-MAT scale (|V| = 2^scale); other datasets sized to match")
		edgeFactor = fs.Int("edgefactor", 16, "edges per vertex before dedup")
		workers    = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		timeout    = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		report     = fs.String("report", "text", "output format: text | json (comparator sweep, schema in DESIGN.md)")
		out        = fs.String("o", "", "with -report json: write the report to this file instead of stdout")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		phase1     = fs.String("phase1", "", "LOTUS phase-1 kernel for lotus runs: auto | scalar | word (default auto)")
		isect      = fs.String("intersect", "", "LOTUS NNN intersection kernel: adaptive | merge (default adaptive); HNN always uses the hub bitmap")
		shards     = fs.Int("shards", 0, "add a lotus-sharded run with this grid dimension to the comparator sweep (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := core.ParsePhase1Kernel(*phase1); err != nil {
		fmt.Fprintf(stderr, "lotus-bench: %v\n", err)
		return 2
	}
	if _, err := core.ParseIntersectKernel(*isect); err != nil {
		fmt.Fprintf(stderr, "lotus-bench: %v\n", err)
		return 2
	}
	if *report != "text" && *report != "json" {
		fmt.Fprintf(stderr, "lotus-bench: unknown -report format %q (want text or json)\n", *report)
		return 2
	}
	if *pprofAddr != "" {
		addr, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lotus-bench: -pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "lotus-bench: debug server on http://%s/debug/pprof/\n", addr)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Description)
		}
		return 0
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	suite := harness.Suite{
		Scale: *scale, EdgeFactor: *edgeFactor, Ctx: ctx,
		Phase1Kernel: *phase1, IntersectKernel: *isect,
		Shards: *shards,
	}
	if *report == "json" {
		br := harness.BuildBenchReport(suite, *workers)
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(stderr, "lotus-bench: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := br.WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "lotus-bench: %v\n", err)
			return 1
		}
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(stderr, "lotus-bench: %v\n", err)
			return 1
		}
		return 0
	}
	switch {
	case *all:
		if err := harness.RunAll(stdout, suite, *workers); err != nil {
			fmt.Fprintf(stderr, "lotus-bench: %v\n", err)
			return 1
		}
	case *exp != "":
		e := harness.Find(*exp)
		if e == nil {
			fmt.Fprintf(stderr, "lotus-bench: unknown experiment %q; try -list\n", *exp)
			return 2
		}
		e.Run(stdout, suite, *workers)
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(stderr, "lotus-bench: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintln(stderr, "lotus-bench: need -exp <id>, -all or -list")
		return 2
	}
	return 0
}
