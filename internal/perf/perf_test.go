package perf

import (
	"testing"

	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/hwsim"
	"lotustc/internal/sched"
)

var pool = sched.NewPool(2)

// tinyMachine keeps the instrumented runs fast in unit tests.
func tinyMachine() hwsim.MachineConfig {
	return hwsim.MachineConfig{
		Name: "tiny", L1Bytes: 4 << 10, L2Bytes: 32 << 10, L3Bytes: 256 << 10,
		L1Ways: 4, L2Ways: 8, L3Ways: 8, TLBEntries: 32,
	}
}

func TestInstrumentedKernelsCountCorrectly(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":      gen.RMAT(gen.DefaultRMAT(9, 8, 1)),
		"hubspokes": gen.HubAndSpokes(16, 300, 4, 2),
		"k20":       gen.Complete(20),
	}
	for name, g := range graphs {
		want := baseline.BruteForce(g)
		fwd := InstrumentedForward(g, tinyMachine())
		if fwd.Triangles != want {
			t.Errorf("%s: instrumented forward = %d, want %d", name, fwd.Triangles, want)
		}
		lg := core.Preprocess(g, core.Options{HubCount: 16, Pool: pool})
		lot := InstrumentedLotus(lg, tinyMachine())
		if lot.Triangles != want {
			t.Errorf("%s: instrumented lotus = %d, want %d", name, lot.Triangles, want)
		}
	}
}

func TestEventsPopulated(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	fwd, lot := Compare(g, core.Options{HubCount: 32, Pool: pool}, tinyMachine())
	for _, e := range []Events{fwd, lot} {
		if e.MemAccesses == 0 || e.Instructions == 0 || e.Branches == 0 {
			t.Fatalf("%s: events not populated: %+v", e.Name, e)
		}
		if e.Instructions < e.MemAccesses {
			t.Fatalf("%s: instruction proxy below load count", e.Name)
		}
		if e.BranchMisses > e.Branches {
			t.Fatalf("%s: more misses than branches", e.Name)
		}
	}
}

func TestLotusImprovesLocalityOnSkewedGraph(t *testing.T) {
	// The paper's central claim (Fig 4): on a skewed graph, LOTUS's
	// counting kernel has fewer LLC and DTLB misses than Forward's.
	// Scale the model machine down with the graph so the CSX topology
	// (~1 MB here) exceeds the LLC, as the paper's graphs exceed real
	// L3s, while LOTUS's per-phase working sets largely fit.
	g := gen.RMAT(gen.DefaultRMAT(12, 16, 7))
	scaled := hwsim.MachineConfig{
		Name: "scaled", L1Bytes: 2 << 10, L2Bytes: 16 << 10, L3Bytes: 64 << 10,
		L1Ways: 4, L2Ways: 8, L3Ways: 8, TLBEntries: 16,
	}
	fwd, lot := Compare(g, core.Options{HubCount: 512, Pool: pool}, scaled)
	if fwd.Triangles != lot.Triangles {
		t.Fatalf("counts differ: %d vs %d", fwd.Triangles, lot.Triangles)
	}
	if lot.LLCMisses >= fwd.LLCMisses {
		t.Errorf("LLC misses: lotus %d >= forward %d", lot.LLCMisses, fwd.LLCMisses)
	}
	if lot.TLBMisses >= fwd.TLBMisses {
		t.Errorf("TLB misses: lotus %d >= forward %d", lot.TLBMisses, fwd.TLBMisses)
	}
	// Fig 5: fewer memory accesses and fewer mispredicted branches.
	if lot.MemAccesses >= fwd.MemAccesses {
		t.Errorf("mem accesses: lotus %d >= forward %d", lot.MemAccesses, fwd.MemAccesses)
	}
	if lot.BranchMisses >= fwd.BranchMisses {
		t.Errorf("branch misses: lotus %d >= forward %d", lot.BranchMisses, fwd.BranchMisses)
	}
	// And fewer estimated cycles — the modeled end-to-end standing.
	if lot.EstimatedCycles >= fwd.EstimatedCycles {
		t.Errorf("cycles: lotus %d >= forward %d", lot.EstimatedCycles, fwd.EstimatedCycles)
	}
}

func TestMRCCurves(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 12, 7))
	lg := core.Preprocess(g, core.Options{Pool: pool})
	caps := []int{1 << 4, 1 << 6, 1 << 8, 1 << 10, 1 << 14, 1 << 22}
	fwd := ForwardMRC(g, caps)
	lot := LotusMRC(lg, caps)
	// Curves must be monotone non-increasing.
	for i := 1; i < len(caps); i++ {
		if fwd[i] > fwd[i-1]+1e-12 || lot[i] > lot[i-1]+1e-12 {
			t.Fatalf("MRC not monotone: fwd %v lot %v", fwd, lot)
		}
	}
	// At huge capacity both converge to cold misses only (near 0).
	if fwd[len(fwd)-1] > 0.02 || lot[len(lot)-1] > 0.02 {
		t.Fatalf("residual misses at infinite cache: fwd %.3f lot %.3f",
			fwd[len(fwd)-1], lot[len(lot)-1])
	}
	// In the contended mid-range — capacities where the miss ratio is
	// still well above the cold floor — LOTUS's curve must sit below
	// Forward's on a skewed graph (the paper's locality claim in
	// machine-independent form). At the extremes the curves cross:
	// tiny caches see LOTUS's random H2H probes, huge caches see its
	// extra cold lines (second index array + H2H), which is exactly
	// the §5.2 Epyc observation.
	for _, i := range []int{1, 2} { // 64- and 256-line caches
		if lot[i] >= fwd[i] {
			t.Fatalf("lotus MRC not below forward at %d lines: fwd %v lot %v",
				caps[i], fwd, lot)
		}
	}
}

func TestH2HProfileCoversAllProbes(t *testing.T) {
	g := gen.HubAndSpokes(32, 500, 6, 4)
	lg := core.Preprocess(g, core.Options{HubCount: 32, Pool: pool})
	p := H2HProfile(lg)
	// Total touches = total pairs enumerated in phase 1 = HHH+HHN probes.
	res := lg.Count(pool)
	var wantProbes uint64
	for v := 0; v < lg.NumVertices(); v++ {
		d := uint64(lg.Shards[0].HE.Degree(uint32(v)))
		wantProbes += d * (d - 1) / 2
	}
	if p.Total() != wantProbes {
		t.Fatalf("profiled %d probes, want %d", p.Total(), wantProbes)
	}
	_ = res
	cdf := p.CDF([]int{p.Lines()})
	if cdf[0] < 0.999 {
		t.Fatalf("full CDF = %v, want 1", cdf[0])
	}
}

func TestH2HAccessesConcentrated(t *testing.T) {
	// §5.7: a small fraction of H2H cachelines satisfies most
	// accesses on skewed graphs. Check the top 25% of lines cover
	// >= 80% of probes on an RMAT graph.
	g := gen.RMAT(gen.DefaultRMAT(12, 16, 9))
	lg := core.Preprocess(g, core.Options{HubCount: 512, Pool: pool})
	p := H2HProfile(lg)
	if p.Total() == 0 {
		t.Skip("no hub pairs on this seed")
	}
	top := p.Lines() / 4
	cdf := p.CDF([]int{top})
	if cdf[0] < 0.8 {
		t.Fatalf("top 25%% of lines cover only %.2f of accesses", cdf[0])
	}
}

// TestInstrumentedWordKernel asserts the word-phase-1 replay counts
// the same triangles as the scalar one while removing the per-probe
// branch site from the stream.
func TestInstrumentedWordKernel(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":      gen.RMAT(gen.DefaultRMAT(9, 8, 1)),
		"hubspokes": gen.HubAndSpokes(16, 300, 4, 2),
		"k20":       gen.Complete(20),
	}
	for name, g := range graphs {
		lg := core.Preprocess(g, core.Options{HubCount: 16, Pool: pool})
		scalar := InstrumentedLotusKernel(lg, tinyMachine(), false)
		word := InstrumentedLotusKernel(lg, tinyMachine(), true)
		if word.Triangles != scalar.Triangles {
			t.Errorf("%s: word replay = %d triangles, scalar = %d", name, word.Triangles, scalar.Triangles)
		}
		if word.Branches >= scalar.Branches && scalar.Branches > 0 {
			t.Errorf("%s: word replay has %d branch events, scalar %d — probe branches should vanish",
				name, word.Branches, scalar.Branches)
		}
		if word.Name == scalar.Name {
			t.Errorf("%s: kernel variants share event name %q", name, word.Name)
		}
	}
}
