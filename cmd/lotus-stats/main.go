// Command lotus-stats prints the paper's topology statistics for a
// graph: the Table 1 row (1% hubs), Table 7 sizes, Table 8 H2H
// characteristics, the Fig 8 HE/NHE edge split, the component
// structure and the degree histogram.
//
// Usage:
//
//	lotus-stats -graph web.lotg
//	lotus-stats -rmat 16
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"lotustc/internal/cc"
	"lotustc/internal/compress"
	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
	"lotustc/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotus-stats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "binary LOTG graph file")
		rmat      = fs.Uint("rmat", 0, "generate an R-MAT graph of this scale instead of loading")
		ef        = fs.Int("edgefactor", 16, "R-MAT edge factor")
		seed      = fs.Int64("seed", 1, "R-MAT seed")
		hubFrac   = fs.Float64("hubfrac", 0.01, "Table 1 hub fraction")
		hubs      = fs.Int("hubs", 0, "LOTUS hub count for Table 7/8 (0 = adaptive)")
		timeout   = fs.Duration("timeout", 0, "abort the analysis after this long (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var g *graph.Graph
	var err error
	switch {
	case *rmat > 0:
		g = gen.RMAT(gen.DefaultRMAT(*rmat, *ef, *seed))
	case *graphPath != "":
		g, err = graph.LoadFile(*graphPath)
	default:
		fmt.Fprintln(stderr, "lotus-stats: need -graph or -rmat")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "lotus-stats: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "vertices: %d   edges: %d   max degree: %d   degree Gini: %.3f   assortativity: %+.3f\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.GiniOfDegrees(), stats.DegreeAssortativity(g))

	pool := sched.NewPool(0).Bind(ctx)
	defer pool.Release()
	comps := cc.Summarize(cc.LabelPropagation(g, pool))
	fmt.Fprintf(stdout, "components: %d (largest %.1f%%, %d isolated)\n",
		comps.Components, 100*comps.LargestShare, comps.Isolated)

	t1 := stats.ComputeTable1(g, *hubFrac)
	fmt.Fprintf(stdout, "\nTable 1 (hub fraction %.2f%%):\n", 100**hubFrac)
	fmt.Fprintf(stdout, "  hub-to-hub edges:     %6.1f%%\n", t1.HubToHubPct)
	fmt.Fprintf(stdout, "  hub-to-non-hub edges: %6.1f%%\n", t1.HubToNonHubPct)
	fmt.Fprintf(stdout, "  total hub edges:      %6.1f%%\n", t1.TotalHubPct)
	fmt.Fprintf(stdout, "  non-hub edges:        %6.1f%%\n", t1.NonHubPct)
	fmt.Fprintf(stdout, "  triangles:            %d (hub: %d = %.1f%%)\n",
		t1.TotalTriangles, t1.HubTriangles, t1.HubTrianglePct)
	fmt.Fprintf(stdout, "  hub relative density: %.0f\n", t1.RelativeDensity)
	fmt.Fprintf(stdout, "  fruitless searches:   %6.1f%%\n", t1.FruitlessSearchPct)

	lg, err := core.TryPreprocess(g, core.Options{HubCount: *hubs, Pool: pool})
	if err = cmp.Or(ctx.Err(), err); err != nil {
		fmt.Fprintf(stderr, "lotus-stats: %v\n", err)
		return 1
	}
	t7 := stats.ComputeTable7(g, lg)
	fmt.Fprintf(stdout, "\nTable 7 (LOTUS hub count %d):\n", lg.HubCount)
	fmt.Fprintf(stdout, "  CSX edges: %d B   CSX: %d B   LOTUS: %d B   growth: %.1f%%\n",
		t7.CSXEdgesBytes, t7.CSXBytes, t7.LotusBytes, t7.GrowthPct)
	cs := compress.CompareSizes(g.Orient())
	fmt.Fprintf(stdout, "  gap-compressed (oriented): %d B (%.2fx of CSX)\n",
		cs.CompressedBytes, cs.Ratio)

	t8 := stats.ComputeTable8(lg)
	fmt.Fprintf(stdout, "\nTable 8: H2H density %.2f%%, zero cachelines %.2f%%\n",
		t8.DensityPct, t8.ZeroCachelinePct)

	split := stats.ComputeEdgeSplit(lg)
	fmt.Fprintf(stdout, "\nFig 8: HE %.1f%% (%d edges), NHE %.1f%% (%d edges)\n",
		split.HEPct, split.HEEdges, split.NHEPct, split.NHEEdges)

	fmt.Fprintln(stdout, "\nDegree histogram (log2 buckets):")
	for b, c := range stats.DegreeHistogram(g) {
		if c > 0 {
			lo := 0
			if b > 0 {
				lo = 1 << (b - 1)
			}
			fmt.Fprintf(stdout, "  [%6d, %6d): %d\n", lo, 1<<b, c)
		}
	}
	return 0
}
