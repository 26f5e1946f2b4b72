package harness

import (
	"fmt"
	"io"
	"time"

	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
	"lotustc/internal/stats"
)

// RunTable1 reproduces Table 1: topological characteristics with the
// top 1% of vertices selected as hubs.
func RunTable1(w io.Writer, s Suite) {
	fmt.Fprintln(w, "=== Table 1: topological characteristics of hubs (1% of vertices) ===")
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %9s %10s %10s\n",
		"dataset", "H2H%", "H2N%", "HubE%", "NonHubE%", "HubTri%", "RelDens", "Fruitless%")
	var avg stats.Table1
	ds := s.Datasets()
	for _, d := range ds {
		g := d.Build()
		t1 := stats.ComputeTable1(g, 0.01)
		fmt.Fprintf(w, "%-12s %8.1f %8.1f %8.1f %8.1f %9.1f %10.0f %10.1f\n",
			d.Name, t1.HubToHubPct, t1.HubToNonHubPct, t1.TotalHubPct,
			t1.NonHubPct, t1.HubTrianglePct, t1.RelativeDensity, t1.FruitlessSearchPct)
		avg.HubToHubPct += t1.HubToHubPct
		avg.HubToNonHubPct += t1.HubToNonHubPct
		avg.TotalHubPct += t1.TotalHubPct
		avg.NonHubPct += t1.NonHubPct
		avg.HubTrianglePct += t1.HubTrianglePct
		avg.RelativeDensity += t1.RelativeDensity
		avg.FruitlessSearchPct += t1.FruitlessSearchPct
	}
	k := float64(len(ds))
	fmt.Fprintf(w, "%-12s %8.1f %8.1f %8.1f %8.1f %9.1f %10.0f %10.1f\n",
		"Average", avg.HubToHubPct/k, avg.HubToNonHubPct/k, avg.TotalHubPct/k,
		avg.NonHubPct/k, avg.HubTrianglePct/k, avg.RelativeDensity/k, avg.FruitlessSearchPct/k)
	fmt.Fprintln(w, "(paper averages: H2H 18.1, H2N 54.8, HubE 72.9, NonHubE 27.1, HubTri 93.4, RelDens 1809, Fruitless 53.3)")
}

// algoRun is one end-to-end timed run.
type algoRun struct {
	Name      string
	Seconds   float64
	Triangles uint64
}

// runAllAlgorithms executes every Table 5 comparator end-to-end
// (preprocessing included) and LOTUS, returning the timings.
func runAllAlgorithms(g *graph.Graph, pool *sched.Pool) []algoRun {
	var runs []algoRun
	timeIt := func(name string, f func() uint64) {
		t0 := time.Now()
		tri := f()
		runs = append(runs, algoRun{Name: name, Seconds: time.Since(t0).Seconds(), Triangles: tri})
	}
	timeIt("BBTC", func() uint64 { return baseline.BBTC(g, pool, 0) })
	timeIt("GGrnd", func() uint64 { return baseline.EdgeIterator(g, pool) })
	timeIt("GAP", func() uint64 { return baseline.Forward(g, pool, baseline.KernelMerge) })
	timeIt("GBBS", func() uint64 { return baseline.GBBS(g, pool) })
	timeIt("Lotus", func() uint64 { return lotusTotal(g, pool) })
	return runs
}

// RunTable5 reproduces Tables 5/6 and Fig 1: end-to-end execution
// times for LOTUS vs the baselines, with per-dataset speedups, plus
// the Fig 1 average TC rate (edges/second, end-to-end).
func RunTable5(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintf(w, "=== Table 5: end-to-end TC execution times (seconds, %d workers) ===\n", pool.Workers())
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s %12s\n",
		"dataset", "BBTC", "GGrnd", "GAP", "GBBS", "Lotus", "triangles")
	type agg struct {
		speedup float64
		rate    float64
		n       int
	}
	sums := map[string]*agg{}
	avgOf := func(a *agg, f func(*agg) float64) float64 {
		if a == nil || a.n == 0 {
			return 0 // empty suite: print a finite zero row
		}
		return f(a) / float64(a.n)
	}
	for _, d := range s.Datasets() {
		g := d.Build()
		runs := runAllAlgorithms(g, pool)
		lotus := runs[len(runs)-1]
		fmt.Fprintf(w, "%-12s", d.Name)
		for _, r := range runs {
			fmt.Fprintf(w, " %10.3f", r.Seconds)
			if r.Triangles != lotus.Triangles {
				fmt.Fprintf(w, "(COUNT MISMATCH %s=%d lotus=%d)", r.Name, r.Triangles, lotus.Triangles)
			}
			a := sums[r.Name]
			if a == nil {
				a = &agg{}
				sums[r.Name] = a
			}
			// A sub-resolution run times as 0 s; safeDiv keeps one such
			// dataset from poisoning the whole average with NaN/Inf.
			a.speedup += safeDiv(r.Seconds, lotus.Seconds)
			a.rate += safeDiv(float64(g.NumEdges()), r.Seconds)
			a.n++
		}
		fmt.Fprintf(w, " %12d\n", lotus.Triangles)
	}
	fmt.Fprintf(w, "%-12s", "Avg speedup")
	for _, name := range []string{"BBTC", "GGrnd", "GAP", "GBBS", "Lotus"} {
		fmt.Fprintf(w, " %9.2fx", avgOf(sums[name], func(a *agg) float64 { return a.speedup }))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "(paper averages: Lotus 19.3x vs BBTC, 5.5x vs GraphGrind, 3.8x vs GAP, 2.2x vs GBBS)")
	fmt.Fprintln(w, "\n=== Fig 1: average end-to-end TC rate (edges/second) ===")
	for _, name := range []string{"BBTC", "GGrnd", "GAP", "GBBS", "Lotus"} {
		fmt.Fprintf(w, "%-8s %14.0f\n", name, avgOf(sums[name], func(a *agg) float64 { return a.rate }))
	}
}

// RunTable7 reproduces Table 7: topology data sizes, CSX vs LOTUS.
func RunTable7(w io.Writer, s Suite) {
	fmt.Fprintln(w, "=== Table 7: size of topology data ===")
	fmt.Fprintf(w, "%-12s %14s %14s %14s %9s\n",
		"dataset", "CSX edges (B)", "CSX (B)", "Lotus (B)", "growth%")
	pool := s.NewPool(0)
	var growth float64
	ds := s.Datasets()
	for _, d := range ds {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		t7 := stats.ComputeTable7(g, lg)
		fmt.Fprintf(w, "%-12s %14d %14d %14d %9.1f\n",
			d.Name, t7.CSXEdgesBytes, t7.CSXBytes, t7.LotusBytes, t7.GrowthPct)
		growth += t7.GrowthPct
	}
	fmt.Fprintf(w, "%-12s %14s %14s %14s %9.1f\n", "Average", "", "", "", growth/float64(len(ds)))
	fmt.Fprintln(w, "(paper average: -4.1% — LOTUS shrinks topology when hubs carry many edges)")
}

// paperHubCount mirrors the paper's fixed 64K hubs, which on its
// smallest datasets is a generous ~1-12% of |V|: min(2^16, |V|/8).
// Table 8 and Fig 9 study the H2H array itself, whose density and
// sparsity pattern depend on this hubs-to-graph ratio.
func paperHubCount(n int) int {
	h := n / 8
	if h > core.DefaultHubCount {
		h = core.DefaultHubCount
	}
	return h
}

// RunTable8 reproduces Table 8: H2H bit array density and zero
// 64-byte cachelines.
func RunTable8(w io.Writer, s Suite) {
	fmt.Fprintln(w, "=== Table 8: Lotus H2H bit array characteristics ===")
	fmt.Fprintf(w, "%-12s %12s %18s\n", "dataset", "density%", "zero cachelines%")
	pool := s.NewPool(0)
	for _, d := range s.Datasets() {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool, HubCount: paperHubCount(g.NumVertices())})
		if lg == nil {
			return
		}
		t8 := stats.ComputeTable8(lg)
		fmt.Fprintf(w, "%-12s %12.2f %18.2f\n", d.Name, t8.DensityPct, t8.ZeroCachelinePct)
	}
	fmt.Fprintln(w, "(paper: density 0.15-15.3%; zero lines 75-95% web graphs, 5-62% social networks)")
}

// simulateSchedule list-schedules the tile work sequence onto the
// given number of workers (dynamic self-scheduling: each idle worker
// takes the next tile) and returns the makespan and the mean idle
// fraction. This reproduces the Table 9 measurement independent of
// the host's physical core count.
func simulateSchedule(work []uint64, workers int) (makespan uint64, idle float64) {
	if len(work) == 0 || workers <= 0 {
		return 0, 0
	}
	busy := make([]uint64, workers)
	var total uint64
	for _, wk := range work {
		// Next tile goes to the earliest-finishing worker.
		minI := 0
		for i := 1; i < workers; i++ {
			if busy[i] < busy[minI] {
				minI = i
			}
		}
		busy[minI] += wk
		total += wk
	}
	for _, b := range busy {
		if b > makespan {
			makespan = b
		}
	}
	if makespan == 0 {
		// All-zero work items: every worker is nominally always idle,
		// but emitting 0 (not NaN from 0/0) keeps downstream averages
		// finite.
		return 0, 0
	}
	idle = 1 - float64(total)/(float64(makespan)*float64(workers))
	if idle < 0 {
		idle = 0 // float round-off on exactly balanced schedules
	}
	return makespan, idle
}

// safeDiv returns a/b, or 0 when b is 0 — table aggregation must stay
// finite even when a run is faster than the clock resolution.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// edgeBalancedChunkWork reproduces the [67]/[79] policy Table 9
// compares against: the HE edge array is split into `parts`
// contiguous chunks of equal edge count, and each chunk's pair work
// (H2H probes) is summed. A chunk that lands on the tail of a
// high-degree vertex's neighbour list carries quadratically more
// work — the imbalance the paper measures.
func edgeBalancedChunkWork(s *core.LotusShard, parts int) []uint64 {
	total := s.HE.NumEdges()
	if total == 0 || parts <= 0 {
		return nil
	}
	per := (total + int64(parts) - 1) / int64(parts)
	work := make([]uint64, parts)
	off := s.HE.Offsets()
	n := s.NumVertices()
	for v := 0; v < n; v++ {
		d := int(off[v+1] - off[v])
		for i := 0; i < d; i++ {
			chunk := (off[v] + int64(i)) / per
			// Pair work of the h1 at index i is i comparisons.
			work[chunk] += uint64(i)
		}
	}
	return work
}

// RunTable9 reproduces Table 9 and the §5.8 claim: phase-1 load
// balance under edge-balanced partitioning (256 x threads equal-edge
// chunks, as the paper describes) vs squared edge tiling. Idle time
// is computed by list-scheduling the actual per-tile work onto the
// paper's 32 threads (wall-clock idle is meaningless when the host
// has fewer cores); the projected phase-1 speedup is the ratio of
// simulated makespans.
func RunTable9(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	const simThreads = 32 // the paper's SkyLakeX thread count
	fmt.Fprintf(w, "=== Table 9: phase-1 idle time, simulated at %d threads ===\n", simThreads)
	// The imbalance of equal-edge-count chunks appears when one chunk
	// covers a large slice of a hub's neighbour list, i.e. when
	// edges-per-chunk is not tiny relative to the max degree. The
	// paper's graphs have billions of edges, so even its 256x-threads
	// decomposition leaves such chunks; at laptop scale we report the
	// matched decomposition (2 x threads tiles per unit, like squared
	// tiling) alongside the paper's 256 x threads.
	fmt.Fprintf(w, "%-12s %14s %14s %14s %10s %14s\n",
		"dataset", "eb@2T idle%", "eb@256T idle%", "sq-til idle%", "sq tiles", "proj. speedup")
	thr := DefaultTileThresholdForSuite(s)
	for _, d := range s.Datasets() {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		// Verify the squared-tiling path still counts correctly.
		ref := lg.CountWithOptions(pool, core.CountOptions{TileThreshold: 1 << 30})
		sqRes := lg.CountWithOptions(pool, core.CountOptions{TileThreshold: thr, TilesPerVertex: 2 * simThreads})
		if ref.Total != sqRes.Total {
			fmt.Fprintf(w, "%-12s COUNT MISMATCH\n", d.Name)
			continue
		}
		ebCoarse := edgeBalancedChunkWork(lg.Flat(), 2*simThreads)
		ebFine := edgeBalancedChunkWork(lg.Flat(), 256*simThreads)
		sqWork := lg.Phase1TileWork(core.CountOptions{TileThreshold: thr, TilesPerVertex: 2 * simThreads}, simThreads)
		ebCSpan, ebCIdle := simulateSchedule(ebCoarse, simThreads)
		_, ebFIdle := simulateSchedule(ebFine, simThreads)
		sqSpan, sqIdle := simulateSchedule(sqWork, simThreads)
		speedup := 0.0
		if sqSpan > 0 {
			speedup = float64(ebCSpan) / float64(sqSpan)
		}
		fmt.Fprintf(w, "%-12s %14.1f %14.1f %14.1f %10d %13.2fx\n",
			d.Name, 100*ebCIdle, 100*ebFIdle, 100*sqIdle, len(sqWork), speedup)
	}
	fmt.Fprintln(w, "(paper [32 cores]: edge-balanced 13.6-83.3% idle vs squared tiling 0.7-3.3%; 2.7x phase-1 speedup)")
}

// DefaultTileThresholdForSuite scales the paper's 512 tiling cutoff
// down with the suite so that small graphs still exercise tiling.
func DefaultTileThresholdForSuite(s Suite) int {
	if s.Scale >= 20 {
		return core.DefaultTileThreshold
	}
	return 64
}
