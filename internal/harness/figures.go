package harness

import (
	"fmt"
	"io"

	"lotustc/internal/core"
	"lotustc/internal/hwsim"
	"lotustc/internal/perf"
	"lotustc/internal/stats"
)

// perfMachine returns the hwsim machine used for the Fig 4/5 replay.
// The model machine scales with the suite the way the paper's L3s
// relate to its multi-gigabyte graphs: the CSX topology should exceed
// the modeled LLC by roughly an order of magnitude.
func perfMachine(s Suite) hwsim.MachineConfig {
	if s.Scale >= 18 {
		return hwsim.SkyLakeX()
	}
	return hwsim.MachineConfig{
		Name: "scaled-skx", L1Bytes: 4 << 10, L2Bytes: 32 << 10, L3Bytes: 256 << 10,
		L1Ways: 8, L2Ways: 8, L3Ways: 11, TLBEntries: 64,
	}
}

// RunFig4And5 reproduces Fig 4 (LLC misses, DTLB misses) and Fig 5
// (memory accesses, instruction proxy, branch mispredictions) by
// replaying the Forward and LOTUS reference streams on the machine
// model.
func RunFig4And5(w io.Writer, s Suite) {
	cfg := perfMachine(s)
	fmt.Fprintf(w, "=== Fig 4 & 5: modeled hardware events, Forward vs Lotus [%s] ===\n", cfg.Name)
	fmt.Fprintf(w, "%-12s %-8s %12s %12s %14s %14s %12s %14s\n",
		"dataset", "algo", "LLC miss", "DTLB miss", "mem access", "instructions", "branch miss", "est. cycles")
	type ratios struct{ llc, tlb, mem, ins, br, cyc float64 }
	var sum ratios
	ds := s.Datasets()
	for _, d := range ds {
		g := d.Build()
		fwd, lot := perf.Compare(g, core.Options{}, cfg)
		for _, e := range []perf.Events{fwd, lot} {
			fmt.Fprintf(w, "%-12s %-8s %12d %12d %14d %14d %12d %14d\n",
				d.Name, label(e.Name), e.LLCMisses, e.TLBMisses, e.MemAccesses, e.Instructions, e.BranchMisses, e.EstimatedCycles)
		}
		sum.llc += ratio(fwd.LLCMisses, lot.LLCMisses)
		sum.tlb += ratio(fwd.TLBMisses, lot.TLBMisses)
		sum.mem += ratio(fwd.MemAccesses, lot.MemAccesses)
		sum.ins += ratio(fwd.Instructions, lot.Instructions)
		sum.br += ratio(fwd.BranchMisses, lot.BranchMisses)
		sum.cyc += ratio(fwd.EstimatedCycles, lot.EstimatedCycles)
	}
	k := float64(len(ds))
	fmt.Fprintf(w, "Average reduction (forward/lotus): LLC %.1fx, DTLB %.1fx, mem %.1fx, instr %.1fx, branch-miss %.1fx, cycles %.1fx\n",
		sum.llc/k, sum.tlb/k, sum.mem/k, sum.ins/k, sum.br/k, sum.cyc/k)
	fmt.Fprintln(w, "(paper averages: LLC 2.1x, DTLB 34.6x, mem 1.5x, instr 1.7x, branch-miss 2.4x)")

	// With the tagged next-line prefetcher on, streamed phases stop
	// missing and the LLC gap widens further (§4.5's argument that
	// LOTUS turns random traffic into prefetchable streams).
	pf := cfg
	pf.Prefetch = true
	pf.Name += "+pf"
	var pfSum float64
	for _, d := range ds {
		g := d.Build()
		fwd, lot := perf.Compare(g, core.Options{}, pf)
		pfSum += ratio(fwd.LLCMisses, lot.LLCMisses)
	}
	fmt.Fprintf(w, "With next-line prefetcher: average LLC-miss reduction %.1fx\n", pfSum/k)
}

func label(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// RunArchSweep reproduces the §5.2 architecture observation: "the
// Epyc system has ... 512MB total L3 ... As a result, speedup
// obtained by Lotus is less, due to the larger cache size." Three
// scaled machine models with growing LLCs are driven by the same
// reference streams; the LLC-miss reduction (the source of the LOTUS
// speedup) must shrink as the LLC grows.
func RunArchSweep(w io.Writer, s Suite) {
	fmt.Fprintln(w, "=== Architecture sweep (§5.2): LOTUS advantage vs LLC size ===")
	small := hwsim.MachineConfig{Name: "small-llc", L1Bytes: 2 << 10, L2Bytes: 16 << 10, L3Bytes: 64 << 10,
		L1Ways: 4, L2Ways: 8, L3Ways: 8, TLBEntries: 32}
	mid := hwsim.MachineConfig{Name: "mid-llc", L1Bytes: 4 << 10, L2Bytes: 32 << 10, L3Bytes: 256 << 10,
		L1Ways: 8, L2Ways: 8, L3Ways: 11, TLBEntries: 64}
	big := hwsim.MachineConfig{Name: "big-llc", L1Bytes: 8 << 10, L2Bytes: 64 << 10, L3Bytes: 4 << 20,
		L1Ways: 8, L2Ways: 8, L3Ways: 16, TLBEntries: 256}
	machines := []hwsim.MachineConfig{small, mid, big}
	fmt.Fprintf(w, "%-12s %12s %16s %16s %14s\n", "dataset", "machine", "fwd LLC miss", "lotus LLC miss", "reduction")
	for _, d := range s.Datasets() {
		g := d.Build()
		for _, m := range machines {
			fwd, lot := perf.Compare(g, core.Options{}, m)
			fmt.Fprintf(w, "%-12s %12s %16d %16d %13.2fx\n",
				d.Name, m.Name, fwd.LLCMisses, lot.LLCMisses, ratio(fwd.LLCMisses, lot.LLCMisses))
		}
	}
	fmt.Fprintln(w, "(paper: the Epyc's 512 MB L3 captures most accesses, so the LOTUS speedup shrinks there)")
}

// RunMRC prints machine-independent LRU miss-ratio curves for the
// Forward and LOTUS reference streams (exact Mattson stack analysis).
// The LOTUS curve sits below Forward's in the contended capacity
// range and the curves converge once the cache swallows the whole
// topology — the §5.2 explanation for the Epyc's smaller speedup,
// with no cache simulator in the loop.
func RunMRC(w io.Writer, s Suite) {
	fmt.Fprintln(w, "=== Miss-ratio curves (exact LRU stack analysis of the reference streams) ===")
	caps := []int{1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 17, 1 << 20}
	fmt.Fprintf(w, "%-12s %-8s", "dataset", "algo")
	for _, c := range caps {
		fmt.Fprintf(w, " %9s", fmtBytes(int64(c)*64))
	}
	fmt.Fprintln(w)
	pool := s.NewPool(0)
	// The exact stack analysis is O(accesses * log(lines)): run it on
	// a reduced copy of each dataset to keep the experiment fast.
	rs := s
	if rs.Scale > 12 {
		rs.Scale = 12
	}
	for _, d := range rs.Datasets() {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		fwd := perf.ForwardMRC(g, caps)
		lot := perf.LotusMRC(lg, caps)
		fmt.Fprintf(w, "%-12s %-8s", d.Name, "forward")
		for _, m := range fwd {
			fmt.Fprintf(w, " %8.3f%%", 100*m)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-12s %-8s", d.Name, "lotus")
		for _, m := range lot {
			fmt.Fprintf(w, " %8.3f%%", 100*m)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(columns are LRU capacities; curves converge at the right — the §5.2 large-L3 effect)")
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// RunFig6 reproduces Fig 6: the LOTUS execution breakdown across
// preprocessing and the three counting phases.
func RunFig6(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintln(w, "=== Fig 6: Lotus execution breakdown (seconds) ===")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %8s %8s\n",
		"dataset", "preproc", "HHH+HHN", "HNN", "NNN", "pre%", "NNN%ofTC")
	var preSum, nnnSum float64
	ds := s.Datasets()
	for _, d := range ds {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		res := lg.Count(pool)
		pre := lg.PreprocessTime.Seconds()
		p1, p2, p3 := res.Phase1Time.Seconds(), res.HNNTime.Seconds(), res.NNNTime.Seconds()
		total := pre + p1 + p2 + p3
		tc := p1 + p2 + p3
		prePct, nnnPct := 100*pre/total, 100*p3/tc
		fmt.Fprintf(w, "%-12s %10.3f %10.3f %10.3f %10.3f %7.1f%% %7.1f%%\n",
			d.Name, pre, p1, p2, p3, prePct, nnnPct)
		preSum += prePct
		nnnSum += nnnPct
	}
	k := float64(len(ds))
	fmt.Fprintf(w, "Average: preprocessing %.1f%% of total; NNN %.1f%% of counting time\n", preSum/k, nnnSum/k)
	fmt.Fprintln(w, "(paper averages: preprocessing 19.4% of total; NNN 40.4% of counting)")
}

// RunFig7 reproduces Fig 7: hub vs non-hub triangles counted by LOTUS.
func RunFig7(w io.Writer, s Suite) {
	pool := s.NewPool(0)
	fmt.Fprintln(w, "=== Fig 7: hub vs non-hub triangles (Lotus hub set) ===")
	fmt.Fprintf(w, "%-12s %14s %14s %9s %9s\n", "dataset", "hub tri", "non-hub tri", "hub%", "nonhub%")
	var hubPct float64
	ds := s.Datasets()
	for _, d := range ds {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		res := lg.Count(pool)
		ts := stats.ComputeTriangleSplit(res)
		fmt.Fprintf(w, "%-12s %14d %14d %8.1f%% %8.1f%%\n",
			d.Name, res.HubTriangles(), res.NNN, ts.HubPct, ts.NonHubPct)
		hubPct += ts.HubPct
	}
	fmt.Fprintf(w, "Average hub triangle share: %.1f%%\n", hubPct/float64(len(ds)))
	fmt.Fprintln(w, "(paper average: 68.9% hub / 31.1% non-hub with the 64K hub set)")
}

// RunFig8 reproduces Fig 8: percentage of edges in the HE and NHE
// sub-graphs.
func RunFig8(w io.Writer, s Suite) {
	pool := s.NewPool(0)
	fmt.Fprintln(w, "=== Fig 8: edges in HE vs NHE sub-graphs ===")
	fmt.Fprintf(w, "%-12s %14s %14s %9s %9s\n", "dataset", "HE edges", "NHE edges", "HE%", "NHE%")
	var hePct float64
	ds := s.Datasets()
	for _, d := range ds {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		split := stats.ComputeEdgeSplit(lg)
		fmt.Fprintf(w, "%-12s %14d %14d %8.1f%% %8.1f%%\n",
			d.Name, split.HEEdges, split.NHEEdges, split.HEPct, split.NHEPct)
		hePct += split.HEPct
	}
	fmt.Fprintf(w, "Average HE share: %.1f%%\n", hePct/float64(len(ds)))
	fmt.Fprintln(w, "(paper average: 50.1% of edges processed as hub edges)")
}

// RunFig9 reproduces Fig 9: the cumulative fraction of H2H accesses
// satisfied by the most frequently accessed cachelines, plus the
// §5.7 headline (lines needed for 90% coverage).
func RunFig9(w io.Writer, s Suite) {
	pool := s.NewPool(0)
	fmt.Fprintln(w, "=== Fig 9: cumulative H2H accesses vs top cachelines ===")
	ks := []float64{0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0}
	fmt.Fprintf(w, "%-12s", "dataset")
	for _, f := range ks {
		fmt.Fprintf(w, " %7.1f%%", 100*f)
	}
	fmt.Fprintf(w, " %12s %10s\n", "lines(90%)", "of lines")
	for _, d := range s.Datasets() {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool, HubCount: paperHubCount(g.NumVertices())})
		if lg == nil {
			return
		}
		p := perf.H2HProfile(lg)
		if p.Total() == 0 {
			fmt.Fprintf(w, "%-12s (no hub pairs)\n", d.Name)
			continue
		}
		kcounts := make([]int, len(ks))
		for i, f := range ks {
			kcounts[i] = int(f * float64(p.Lines()))
		}
		cdf := p.CDF(kcounts)
		fmt.Fprintf(w, "%-12s", d.Name)
		for _, c := range cdf {
			fmt.Fprintf(w, " %7.1f%%", 100*c)
		}
		l90 := p.LinesForCoverage(0.90)
		fmt.Fprintf(w, " %12d %9.1f%%\n", l90, 100*float64(l90)/float64(p.Lines()))
	}
	fmt.Fprintln(w, "(paper: 1M cachelines = 64 MB satisfy >90% of H2H accesses; 90% of probes touch 25% of lines)")
}
