// Command lotus-verify cross-checks every triangle counting
// algorithm in the repository against a brute-force oracle on a
// randomized battery of graphs, plus the streaming and k-clique
// extensions. The LOTUS-structured algorithms must also reproduce the
// HHH/HHN/HNN/NNN split of a default-hub core.Preprocess count, and
// lotus at a random grid size and the exact streaming counter
// (shuffled, then with a third of the edges re-added) the split of a
// count over random hubs. It exits non-zero on any disagreement — the
// release gate for the library.
//
// Usage:
//
//	lotus-verify -rounds 50 -maxn 200 -seed 1
//
// -maxn must be at least 4, the smallest random graph drawn.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"lotustc"
	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/kclique"
	"lotustc/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotus-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rounds  = fs.Int("rounds", 30, "random graphs to test")
		maxN    = fs.Int("maxn", 150, "max vertices per random graph")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		kmax    = fs.Int("kmax", 5, "largest clique size to cross-check")
		timeout = fs.Duration("timeout", 0, "abort the whole battery after this long (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *maxN < 4 {
		fmt.Fprintf(stderr, "lotus-verify: -maxn %d: must be at least 4\n", *maxN)
		fs.Usage()
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	pool := sched.NewPool(0)
	checked, failures := 0, 0
	report := func(what string, g *graph.Graph, got, want uint64) {
		failures++
		fmt.Fprintf(stderr, "FAIL %s: got %d want %d (V=%d E=%d)\n",
			what, got, want, g.NumVertices(), g.NumEdges())
	}
	checkClasses := func(what string, g *graph.Graph, got, want [4]uint64) {
		checked++
		if got != want {
			failures++
			fmt.Fprintf(stderr, "FAIL %s: classes %v want %v (V=%d E=%d)\n",
				what, got, want, g.NumVertices(), g.NumEdges())
		}
	}

	verify := func(label string, g *graph.Graph, rng *rand.Rand) {
		want := baseline.BruteForce(g)
		split := core.Preprocess(g, core.Options{Pool: pool}).Count(pool)
		wantClasses := [4]uint64{split.HHH, split.HHN, split.HNN, split.NNN}
		for _, alg := range lotustc.Algorithms() {
			res, err := lotustc.CountContext(ctx, g, lotustc.Options{Algorithm: alg})
			if err == context.DeadlineExceeded || err == context.Canceled {
				return
			}
			if err != nil {
				fmt.Fprintf(stderr, "FAIL %s/%s: %v\n", label, alg, err)
				failures++
				continue
			}
			checked++
			if res.Triangles != want {
				report(label+"/"+string(alg), g, res.Triangles, want)
			}
			if alg == lotustc.AlgoLotus ||
				(alg == lotustc.AlgoAuto && res.Decision != nil && res.Decision.Algorithm == string(lotustc.AlgoLotus)) {
				checkClasses(label+"/"+string(alg), g, [4]uint64{res.HHH, res.HHN, res.HNN, res.NNN}, wantClasses)
			}
		}
		// Random hub count for the core path.
		if n := g.NumVertices(); n > 0 {
			hubs := 1 + rng.Intn(n)
			lg := core.Preprocess(g, core.Options{HubCount: hubs, Pool: pool})
			ref := lg.Count(pool)
			if ref.Total != want {
				report(fmt.Sprintf("%s/lotus-hubs-%d", label, hubs), g, ref.Total, want)
			}
			checked++
			// The shard grid at a random p over the same hubs must
			// reproduce that split too.
			p := 1 + rng.Intn(4)
			sh, err := lotustc.CountContext(ctx, g, lotustc.Options{Algorithm: lotustc.AlgoLotus, HubCount: hubs, Shards: p})
			if err == context.DeadlineExceeded || err == context.Canceled {
				return
			}
			if err != nil {
				fmt.Fprintf(stderr, "FAIL %s/lotus-p%d-hubs-%d: %v\n", label, p, hubs, err)
				failures++
			} else {
				checkClasses(fmt.Sprintf("%s/lotus-p%d-hubs-%d", label, p, hubs), g,
					[4]uint64{sh.HHH, sh.HHN, sh.HNN, sh.NNN}, [4]uint64{ref.HHH, ref.HHN, ref.HNN, ref.NNN})
			}
			// Streaming: a shuffled stream of the same graph over the
			// same hub set must reproduce LOTUS's class split, and
			// still does after a random third of the edges is removed
			// and streamed in again.
			sc, err := lotustc.NewStreamingCounter(n, lotustc.TopDegreeVertices(g, hubs))
			if err != nil {
				report(label+"/streaming-init", g, 0, want)
			} else {
				sc.CountNonHub = true
				edges := g.Edges()
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				for _, e := range edges {
					sc.AddEdge(e.U, e.V)
				}
				checkStream := func(stage string) {
					hhh, hhn, hnn, nnn := sc.Classes()
					checkClasses(fmt.Sprintf("%s/streaming-%s-hubs-%d", label, stage, hubs), g,
						[4]uint64{hhh, hhn, hnn, nnn}, [4]uint64{ref.HHH, ref.HHN, ref.HNN, ref.NNN})
				}
				checkStream("add")
				churn := edges[:len(edges)/3]
				for _, e := range churn {
					sc.RemoveEdge(e.U, e.V)
				}
				for _, e := range churn {
					sc.AddEdge(e.U, e.V)
				}
				checkStream("readd")
			}
			// k-cliques: generic vs lotus-structured.
			og := g.Orient()
			for k := 3; k <= *kmax; k++ {
				a := kclique.Count(og, k, pool)
				b := kclique.CountLotus(lg, k, pool)
				if a != b {
					report(fmt.Sprintf("%s/kclique-%d", label, k), g, b, a)
				}
				checked++
			}
		}
	}

	// Structured battery.
	structured := map[string]*graph.Graph{
		"k12":       gen.Complete(12),
		"star":      gen.Star(40),
		"ring":      gen.Ring(40),
		"grid":      gen.Grid(6, 6),
		"bipartite": gen.CompleteBipartite(6, 7),
		"planted":   gen.PlantedTriangles(9, 4),
		"hubspokes": gen.HubAndSpokes(6, 60, 3, 3),
		"empty":     graph.FromEdges(nil, graph.BuildOptions{NumVertices: 5}),
	}
	rng := rand.New(rand.NewSource(*seed))
	for name, g := range structured {
		if ctx.Err() != nil {
			break
		}
		verify(name, g, rng)
	}

	// Random battery.
	for r := 0; r < *rounds && ctx.Err() == nil; r++ {
		n := 4 + rng.Intn(*maxN-3)
		m := rng.Intn(5 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g := graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
		verify(fmt.Sprintf("random-%d", r), g, rng)
	}

	fmt.Fprintf(stdout, "lotus-verify: %d checks, %d failures\n", checked, failures)
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "lotus-verify: aborted after %v: %v\n", *timeout, ctx.Err())
		return 1
	}
	if failures > 0 {
		return 1
	}
	return 0
}
