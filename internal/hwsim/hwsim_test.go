package hwsim

import (
	"math/rand"
	"testing"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache("t", 4096, 4)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x103F) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) {
		t.Fatal("next line should miss")
	}
	a, m := c.Stats()
	if a != 4 || m != 2 {
		t.Fatalf("stats = %d/%d, want 4/2", a, m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 2 sets (256 B): lines mapping to set 0 are multiples of
	// 128 B. Fill set 0 with lines A,B; touch A; insert C -> B evicted.
	c := NewCache("t", 256, 2)
	if c.sets != 2 {
		t.Fatalf("sets = %d, want 2", c.sets)
	}
	A, B, C := uint64(0), uint64(128), uint64(256)
	c.Access(A)
	c.Access(B)
	c.Access(A) // A is MRU
	c.Access(C) // evicts B
	if !c.Access(A) {
		t.Fatal("A was evicted, want LRU to pick B")
	}
	if c.Access(B) {
		t.Fatal("B should have been evicted")
	}
}

func TestCacheCapacityWorkingSet(t *testing.T) {
	// A working set that fits must converge to 100% hits; one that is
	// 4x the capacity under streaming re-traversal must keep missing.
	small := NewCache("small", 8<<10, 8)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 8<<10; a += 64 {
			small.Access(a)
		}
	}
	a, m := small.Stats()
	if float64(m)/float64(a) > 0.3 {
		t.Fatalf("fitting working set misses %.2f", float64(m)/float64(a))
	}
	big := NewCache("big", 8<<10, 8)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 32<<10; a += 64 {
			big.Access(a)
		}
	}
	a2, m2 := big.Stats()
	if float64(m2)/float64(a2) < 0.9 {
		t.Fatalf("thrashing working set misses only %.2f", float64(m2)/float64(a2))
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache("t", 4096, 4)
	c.Access(0)
	c.Reset()
	a, m := c.Stats()
	if a != 0 || m != 0 {
		t.Fatal("counters survive Reset")
	}
	if c.Access(0) {
		t.Fatal("contents survive Reset")
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Access(0) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(4095) {
		t.Fatal("same page missed")
	}
	if tlb.Access(4096) {
		t.Fatal("next page should miss")
	}
	// Fill beyond capacity and verify LRU.
	tlb.Reset()
	for p := uint64(0); p < 5; p++ {
		tlb.Access(p << 12)
	}
	if tlb.Access(0) { // page 0 is LRU, must have been evicted
		t.Fatal("LRU page survived")
	}
}

func TestHierarchyInclusionOfCounts(t *testing.T) {
	h := NewHierarchy(MachineConfig{Name: "t", L1Bytes: 1 << 10, L2Bytes: 4 << 10, L3Bytes: 16 << 10, L1Ways: 2, L2Ways: 4, L3Ways: 8, TLBEntries: 16})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		h.Access(uint64(rng.Intn(1<<16)), 4)
	}
	_, m1 := h.L1.Stats()
	a2, m2 := h.L2.Stats()
	a3, _ := h.L3.Stats()
	if a2 != m1 {
		t.Fatalf("L2 accesses %d != L1 misses %d", a2, m1)
	}
	if a3 != m2 {
		t.Fatalf("L3 accesses %d != L2 misses %d", a3, m2)
	}
	if h.MemAccesses != 20000 {
		t.Fatalf("MemAccesses = %d", h.MemAccesses)
	}
	if h.LLCMisses() == 0 || h.TLBMisses() == 0 {
		t.Fatal("random 64K working set should miss in tiny caches")
	}
}

func TestHierarchyLineStraddle(t *testing.T) {
	h := NewHierarchy(MachineConfig{Name: "t", L1Bytes: 1 << 10, L2Bytes: 2 << 10, L3Bytes: 4 << 10, L1Ways: 2, L2Ways: 2, L3Ways: 2, TLBEntries: 4})
	h.Access(62, 4) // straddles lines 0 and 1
	a1, _ := h.L1.Stats()
	if a1 != 2 {
		t.Fatalf("straddling access touched %d lines, want 2", a1)
	}
}

func TestMachineConfigs(t *testing.T) {
	for _, cfg := range []MachineConfig{SkyLakeX(), Haswell(), Epyc()} {
		h := NewHierarchy(cfg)
		if h.L3.SizeBytes() <= h.L2.SizeBytes() || h.L2.SizeBytes() <= h.L1.SizeBytes() {
			t.Errorf("%s: level sizes not increasing", cfg.Name)
		}
		h.Access(12345, 8)
		if h.MemAccesses != 1 {
			t.Errorf("%s: access not recorded", cfg.Name)
		}
	}
}

func TestPrefetcherHelpsSequentialStream(t *testing.T) {
	cfg := MachineConfig{Name: "t", L1Bytes: 1 << 10, L2Bytes: 2 << 10, L3Bytes: 4 << 10,
		L1Ways: 2, L2Ways: 2, L3Ways: 2, TLBEntries: 8}
	seq := func(prefetch bool) uint64 {
		h := NewHierarchy(cfg)
		h.Prefetch = prefetch
		for a := uint64(0); a < 1<<16; a += 4 {
			h.Access(a, 4)
		}
		_, m := h.L1.Stats()
		return m
	}
	base, pf := seq(false), seq(true)
	if pf*3 > base {
		t.Fatalf("prefetcher reduced sequential L1 misses only %d -> %d", base, pf)
	}
	// Random streams must not benefit much.
	randMiss := func(prefetch bool) uint64 {
		h := NewHierarchy(cfg)
		h.Prefetch = prefetch
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			h.Access(uint64(rng.Intn(1<<20))&^3, 4)
		}
		return h.LLCMisses()
	}
	rb, rp := randMiss(false), randMiss(true)
	if float64(rp) < 0.8*float64(rb) {
		t.Fatalf("prefetcher helped random stream too much: %d -> %d", rb, rp)
	}
	h := NewHierarchy(cfg)
	h.Prefetch = true
	h.Access(0, 4)
	if h.Prefetches == 0 {
		t.Fatal("prefetch counter not incremented")
	}
	h.Reset()
	if h.Prefetches != 0 {
		t.Fatal("Reset keeps prefetch count")
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	// A branch taken 999 times then not-taken once (loop back-edge)
	// must mispredict rarely.
	bp := NewBranchPredictor(10)
	for i := 0; i < 1000; i++ {
		bp.Record(0x40, i%100 != 99)
	}
	if r := bp.MissRatio(); r > 0.05 {
		t.Fatalf("loop branch miss ratio %.3f too high", r)
	}
}

func TestBranchPredictorRandomIsHard(t *testing.T) {
	bp := NewBranchPredictor(10)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		bp.Record(0x80, rng.Intn(2) == 0)
	}
	if r := bp.MissRatio(); r < 0.35 {
		t.Fatalf("random branch miss ratio %.3f suspiciously low", r)
	}
	b, m := bp.Stats()
	if b != 10000 || m == 0 {
		t.Fatalf("stats %d/%d", b, m)
	}
}

func TestBranchPredictorReset(t *testing.T) {
	bp := NewBranchPredictor(4)
	bp.Record(1, true)
	bp.Reset()
	if b, m := bp.Stats(); b != 0 || m != 0 {
		t.Fatal("counters survive Reset")
	}
	if bp.MissRatio() != 0 {
		t.Fatal("ratio after reset")
	}
}

func TestLatencyModel(t *testing.T) {
	cfg := MachineConfig{Name: "t", L1Bytes: 1 << 10, L2Bytes: 2 << 10, L3Bytes: 4 << 10,
		L1Ways: 2, L2Ways: 2, L3Ways: 2, TLBEntries: 4}
	// No model attached: cycles stay 0.
	h := NewHierarchy(cfg)
	h.Access(0, 4)
	if h.Cycles() != 0 {
		t.Fatal("cycles counted without model")
	}
	// Repeated same-line accesses cost L1 latency after the miss.
	h = NewHierarchy(cfg)
	h.AttachLatency(DefaultLatencies(1))
	h.Access(0, 4)
	miss := h.Cycles()
	if miss != 200 {
		t.Fatalf("cold access cost %d, want 200", miss)
	}
	h.Access(4, 4)
	if h.Cycles()-miss != 4 {
		t.Fatalf("L1 hit cost %d, want 4", h.Cycles()-miss)
	}
	// Random big working set must be far costlier per access than a
	// resident one.
	costOf := func(span uint64) float64 {
		hh := NewHierarchy(cfg)
		hh.AttachLatency(DefaultLatencies(1))
		rng := rand.New(rand.NewSource(1))
		const n = 20000
		for i := 0; i < n; i++ {
			hh.Access(uint64(rng.Intn(int(span)))&^3, 4)
		}
		return float64(hh.Cycles()) / n
	}
	if small, big := costOf(1<<9), costOf(1<<24); big < 3*small {
		t.Fatalf("latency model insensitive to working set: %.1f vs %.1f", small, big)
	}
	// NUMA interleaving: with 4 nodes, 3/4 of memory accesses pay the
	// remote penalty, raising the average memory cost.
	numaCost := func(nodes int) uint64 {
		hh := NewHierarchy(cfg)
		hh.AttachLatency(DefaultLatencies(nodes))
		for p := uint64(0); p < 64; p++ {
			hh.Access(p<<12, 4) // one cold access per page
		}
		return hh.Cycles()
	}
	if c1, c4 := numaCost(1), numaCost(4); c4 <= c1 {
		t.Fatalf("NUMA penalty missing: %d vs %d", c1, c4)
	}
	h.Reset()
	if h.Cycles() != 0 {
		t.Fatal("Reset keeps cycles")
	}
}

func TestLineProfilerCDF(t *testing.T) {
	p := NewLineProfiler(4)
	for i := 0; i < 70; i++ {
		p.Touch(0)
	}
	for i := 0; i < 20; i++ {
		p.Touch(1)
	}
	for i := 0; i < 10; i++ {
		p.Touch(2)
	}
	cdf := p.CDF([]int{0, 1, 2, 3, 4, 100})
	want := []float64{0, 0.7, 0.9, 1.0, 1.0, 1.0}
	for i := range want {
		if diff := cdf[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if got := p.LinesForCoverage(0.9); got != 2 {
		t.Fatalf("LinesForCoverage(0.9) = %d, want 2", got)
	}
	if got := p.LinesForCoverage(0.95); got != 3 {
		t.Fatalf("LinesForCoverage(0.95) = %d, want 3", got)
	}
	if p.Total() != 100 {
		t.Fatalf("Total = %d", p.Total())
	}
}

func TestLineProfilerEmpty(t *testing.T) {
	p := NewLineProfiler(8)
	cdf := p.CDF([]int{1, 8})
	if cdf[0] != 0 || cdf[1] != 0 {
		t.Fatal("empty profiler CDF nonzero")
	}
	if p.LinesForCoverage(0.5) != 0 {
		t.Fatal("empty profiler coverage nonzero")
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(SkyLakeX())
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 28))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&4095], 4)
	}
}
