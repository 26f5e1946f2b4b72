// Command lotus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lotus-bench -list
//	lotus-bench -exp table5 [-scale 16] [-edgefactor 16] [-workers 0]
//	lotus-bench -all [-scale 13]
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
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
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
	suite := harness.Suite{Scale: *scale, EdgeFactor: *edgeFactor, Ctx: ctx}
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
