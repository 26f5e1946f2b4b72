// Benchmarks mapping one testing.B target to every table and figure
// of the paper (DESIGN.md per-experiment index). They run on the
// SmallSuite sizes so `go test -bench=.` completes in minutes; use
// cmd/lotus-bench for full-scale runs and printed tables.
package lotustc

import (
	"io"
	"testing"

	"lotustc/internal/approx"
	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/harness"
	"lotustc/internal/hwsim"
	"lotustc/internal/kclique"
	"lotustc/internal/perf"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
	"lotustc/internal/stats"
)

var benchSuite = harness.SmallSuite()

func benchGraph() *Graph {
	return gen.RMAT(gen.DefaultRMAT(benchSuite.Scale, benchSuite.EdgeFactor, 1))
}

var benchSink uint64

// BenchmarkTable1Stats regenerates the Table 1 topological
// characteristics (1% hub set).
func BenchmarkTable1Stats(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := stats.ComputeTable1(g, 0.01)
		benchSink += t1.TotalTriangles
	}
}

// BenchmarkTable5EndToEnd times each algorithm end-to-end
// (preprocessing included), the Table 5 / Table 6 / Fig 1 measurement.
func BenchmarkTable5EndToEnd(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	b.Run("BBTC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += baseline.BBTC(g, pool, 0)
		}
	})
	b.Run("GraphGrind-edgeiter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += baseline.EdgeIterator(g, pool)
		}
	})
	b.Run("GAP-forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += baseline.Forward(g, pool, baseline.KernelMerge)
		}
	})
	b.Run("GBBS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += baseline.GBBS(g, pool)
		}
	})
	b.Run("Lotus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lg := core.Preprocess(g, core.Options{Pool: pool})
			benchSink += lg.Count(pool).Total
		}
	})
}

// BenchmarkFig4Locality replays both kernels through the cache/TLB
// model (Fig 4a LLC misses, Fig 4b DTLB misses).
func BenchmarkFig4Locality(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 1))
	cfg := hwsim.MachineConfig{
		Name: "scaled-skx", L1Bytes: 4 << 10, L2Bytes: 32 << 10, L3Bytes: 256 << 10,
		L1Ways: 8, L2Ways: 8, L3Ways: 11, TLBEntries: 64,
	}
	b.Run("Forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := perf.InstrumentedForward(g, cfg)
			benchSink += e.LLCMisses
		}
	})
	lg := core.Preprocess(g, core.Options{})
	b.Run("Lotus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := perf.InstrumentedLotus(lg, cfg)
			benchSink += e.LLCMisses
		}
	})
}

// BenchmarkFig5Events is the same replay viewed through the Fig 5
// metrics (accesses / instruction proxy / branch misses); kept as a
// separate target so each figure has one bench.
func BenchmarkFig5Events(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 1))
	cfg := hwsim.SkyLakeX()
	for i := 0; i < b.N; i++ {
		fwd, lot := perf.Compare(g, core.Options{}, cfg)
		benchSink += fwd.BranchMisses + lot.BranchMisses
	}
}

// BenchmarkFig6Breakdown measures the LOTUS phases (preprocess /
// HHH+HHN / HNN / NNN) and reports them as custom metrics.
func BenchmarkFig6Breakdown(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	var pre, p1, p2, p3 float64
	for i := 0; i < b.N; i++ {
		lg := core.Preprocess(g, core.Options{Pool: pool})
		res := lg.Count(pool)
		pre += lg.PreprocessTime.Seconds()
		p1 += res.Phase1Time.Seconds()
		p2 += res.HNNTime.Seconds()
		p3 += res.NNNTime.Seconds()
		benchSink += res.Total
	}
	n := float64(b.N)
	b.ReportMetric(pre/n*1e3, "preproc-ms/op")
	b.ReportMetric(p1/n*1e3, "phase1-ms/op")
	b.ReportMetric(p2/n*1e3, "hnn-ms/op")
	b.ReportMetric(p3/n*1e3, "nnn-ms/op")
}

// BenchmarkFig7HubTriangles measures the hub/non-hub triangle split.
func BenchmarkFig7HubTriangles(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	lg := core.Preprocess(g, core.Options{Pool: pool})
	var hubPct float64
	for i := 0; i < b.N; i++ {
		res := lg.Count(pool)
		ts := stats.ComputeTriangleSplit(res)
		hubPct += ts.HubPct
		benchSink += res.Total
	}
	b.ReportMetric(hubPct/float64(b.N), "hub-tri-%")
}

// BenchmarkFig8EdgeSplit measures preprocessing and reports the
// HE/NHE edge split.
func BenchmarkFig8EdgeSplit(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	var hePct float64
	for i := 0; i < b.N; i++ {
		lg := core.Preprocess(g, core.Options{Pool: pool})
		split := stats.ComputeEdgeSplit(lg)
		hePct += split.HEPct
		benchSink += uint64(split.HEEdges)
	}
	b.ReportMetric(hePct/float64(b.N), "he-edges-%")
}

// BenchmarkFig9H2HProfile profiles phase 1's H2H cacheline accesses
// and reports the 90%-coverage line count.
func BenchmarkFig9H2HProfile(b *testing.B) {
	g := benchGraph()
	lg := core.Preprocess(g, core.Options{})
	var l90 float64
	for i := 0; i < b.N; i++ {
		p := perf.H2HProfile(lg)
		l90 += float64(p.LinesForCoverage(0.90))
		benchSink += p.Total()
	}
	b.ReportMetric(l90/float64(b.N), "lines-for-90%")
}

// BenchmarkTable7Sizes measures the topology size computation and
// reports the LOTUS growth percentage.
func BenchmarkTable7Sizes(b *testing.B) {
	g := benchGraph()
	lg := core.Preprocess(g, core.Options{})
	var growth float64
	for i := 0; i < b.N; i++ {
		t7 := stats.ComputeTable7(g, lg)
		growth += t7.GrowthPct
		benchSink += uint64(t7.LotusBytes)
	}
	b.ReportMetric(growth/float64(b.N), "growth-%")
}

// BenchmarkTable8H2H measures the H2H density / zero-cacheline scan.
func BenchmarkTable8H2H(b *testing.B) {
	g := benchGraph()
	lg := core.Preprocess(g, core.Options{})
	var density float64
	for i := 0; i < b.N; i++ {
		t8 := stats.ComputeTable8(lg)
		density += t8.DensityPct
	}
	b.ReportMetric(density/float64(b.N), "density-%")
}

// BenchmarkTable9Tiling times phase 1 under the two partitioners and
// reports their imbalance ratios (the Table 9 comparison).
func BenchmarkTable9Tiling(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	lg := core.Preprocess(g, core.Options{Pool: pool})
	thr := harness.DefaultTileThresholdForSuite(benchSuite)
	b.Run("EdgeBalanced", func(b *testing.B) {
		var imb float64
		for i := 0; i < b.N; i++ {
			res := lg.CountWithOptions(pool, core.CountOptions{Partitioner: core.EdgeBalanced, TileThreshold: thr})
			imb += res.Phase1Load.ImbalanceRatio()
			benchSink += res.Total
		}
		b.ReportMetric(imb/float64(b.N), "max/mean-busy")
	})
	b.Run("SquaredEdgeTiling", func(b *testing.B) {
		var imb float64
		for i := 0; i < b.N; i++ {
			res := lg.CountWithOptions(pool, core.CountOptions{Partitioner: core.SquaredEdgeTiling, TileThreshold: thr})
			imb += res.Phase1Load.ImbalanceRatio()
			benchSink += res.Total
		}
		b.ReportMetric(imb/float64(b.N), "max/mean-busy")
	})
}

// BenchmarkAblationH2HHash compares the H2H bit array against a hash
// set in phase 1 (§5.7).
func BenchmarkAblationH2HHash(b *testing.B) {
	var buf discard
	for i := 0; i < b.N; i++ {
		harness.RunAblationH2H(&buf, harness.Suite{Scale: 10, EdgeFactor: 8})
	}
}

// BenchmarkAblationIntersect compares intersection kernels inside
// Forward (§6.3).
func BenchmarkAblationIntersect(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	for _, k := range []baseline.Kernel{baseline.KernelMerge, baseline.KernelBinary, baseline.KernelHash, baseline.KernelGalloping} {
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += baseline.Forward(g, pool, k)
			}
		})
	}
}

// BenchmarkAblationRelabel compares LOTUS relabeling against full
// degree ordering (§4.3.1).
func BenchmarkAblationRelabel(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	b.Run("LotusRelabel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lg := core.Preprocess(g, core.Options{Pool: pool})
			benchSink += lg.Count(pool).Total
		}
	})
	b.Run("FullDegreeOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gd := g.Relabel(reorder.DegreeOrder(g))
			lg := core.Preprocess(gd, core.Options{Pool: pool})
			benchSink += lg.Count(pool).Total
		}
	})
}

// BenchmarkAblationFusedLoops compares split vs fused HNN/NNN (§4.5).
func BenchmarkAblationFusedLoops(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	lg := core.Preprocess(g, core.Options{Pool: pool})
	b.Run("Split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += lg.CountWithOptions(pool, core.CountOptions{}).Total
		}
	})
	b.Run("Fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += lg.CountWithOptions(pool, core.CountOptions{FuseHNNAndNNN: true}).Total
		}
	})
}

// BenchmarkPhase1Kernels compares the phase-1 probe kernels on a
// preprocessed graph: scalar per-pair bit tests, the word-parallel
// bitmap kernel, and the per-row auto dispatch. phase1-ms/op isolates
// the phase being ablated from the (shared) HNN/NNN time.
func BenchmarkPhase1Kernels(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	lg := core.Preprocess(g, core.Options{Pool: pool})
	for _, k := range []core.Phase1Kernel{core.Phase1Scalar, core.Phase1Word, core.Phase1Auto} {
		b.Run(k.String(), func(b *testing.B) {
			var p1 float64
			for i := 0; i < b.N; i++ {
				res := lg.CountWithOptions(pool, core.CountOptions{Phase1Kernel: k})
				p1 += res.Phase1Time.Seconds()
				benchSink += res.Total
			}
			b.ReportMetric(p1/float64(b.N)*1e3, "phase1-ms/op")
		})
	}
}

// BenchmarkIntersectDispatch compares unconditional merge join
// against the adaptive merge/galloping dispatch in the NNN phase (HNN
// always probes the hub bitmap).
func BenchmarkIntersectDispatch(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	lg := core.Preprocess(g, core.Options{Pool: pool})
	for _, k := range []core.IntersectKernel{core.IntersectMerge, core.IntersectAdaptive} {
		b.Run(k.String(), func(b *testing.B) {
			var nnn float64
			for i := 0; i < b.N; i++ {
				res := lg.CountWithOptions(pool, core.CountOptions{Intersect: k})
				nnn += res.NNNTime.Seconds()
				benchSink += res.Total
			}
			b.ReportMetric(nnn/float64(b.N)*1e3, "nnn-ms/op")
		})
	}
}

// BenchmarkAblationPreprocess compares the two Algorithm 2
// implementations (materialize+split vs literal per-edge).
func BenchmarkAblationPreprocess(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	b.Run("Materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lg := core.PreprocessMaterialize(g, core.Options{Pool: pool})
			benchSink += uint64(lg.HE.NumEdges())
		}
	})
	b.Run("DirectAlg2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lg := core.PreprocessDirect(g, core.Options{Pool: pool})
			benchSink += uint64(lg.HE.NumEdges())
		}
	})
}

// BenchmarkExtensionKClique measures k-clique counting, generic vs
// LOTUS-structured (§7).
func BenchmarkExtensionKClique(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 2))
	og := g.Orient()
	lg := core.Preprocess(g, core.Options{})
	pool := sched.NewPool(0)
	for _, k := range []int{3, 4} {
		b.Run("generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += kclique.Count(og, k, pool)
			}
		})
		b.Run("lotus", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += kclique.CountLotus(lg, k, pool)
			}
		})
	}
}

// BenchmarkExtensionApprox measures the estimators.
func BenchmarkExtensionApprox(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 3))
	pool := sched.NewPool(0)
	b.Run("doulion-p0.3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += uint64(approx.Doulion(g, 0.3, int64(i), pool))
		}
	})
	b.Run("wedge-100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += uint64(approx.WedgeSampling(g, 100000, int64(i)))
		}
	})
	b.Run("hybrid-p0.3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += uint64(approx.Hybrid(g, 0.3, int64(i), core.Options{Pool: pool}, pool).Estimate)
		}
	})
}

// BenchmarkSchedulers compares the shared-counter self-scheduler
// against the Chase-Lev work-stealing deques on phase 1.
func BenchmarkSchedulers(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	lg := core.Preprocess(g, core.Options{Pool: pool})
	thr := harness.DefaultTileThresholdForSuite(benchSuite)
	b.Run("SharedCounter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += lg.CountWithOptions(pool, core.CountOptions{TileThreshold: thr}).Total
		}
	})
	b.Run("WorkStealing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += lg.CountWithOptions(pool, core.CountOptions{TileThreshold: thr, WorkStealing: true}).Total
		}
	})
}

// BenchmarkExtensionStreaming measures streamed hub-triangle
// counting (§6.2).
func BenchmarkExtensionStreaming(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(12, 8, 2))
	edges := g.Edges()
	hubs := TopDegreeVertices(g, g.NumVertices()/100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := NewStreamingCounter(g.NumVertices(), hubs)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range edges {
			sc.AddEdge(e.U, e.V)
		}
		benchSink += sc.HubTriangles()
	}
}

// BenchmarkExtensionRecursive measures the recursive NHE split.
func BenchmarkExtensionRecursive(b *testing.B) {
	g := benchGraph()
	pool := sched.NewPool(0)
	for i := 0; i < b.N; i++ {
		rr, err := core.CountRecursive(g, pool, core.RecursiveOptions{MaxDepth: 3})
		if err != nil {
			b.Fatal(err)
		}
		benchSink += rr.Total
	}
}

// discard is an io.Writer that swallows harness output in benches.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

var _ io.Writer = discard{}
