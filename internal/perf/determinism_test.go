package perf

import (
	"testing"

	"lotustc/internal/core"
	"lotustc/internal/gen"
)

// The replay infrastructure must be fully deterministic: identical
// graphs and machine configs produce identical event counts, or
// EXPERIMENTS.md numbers would not be reproducible.
func TestReplayDeterminism(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 11))
	cfg := tinyMachine()
	a := InstrumentedForward(g, cfg)
	b := InstrumentedForward(g, cfg)
	if a != b {
		t.Fatalf("forward replay not deterministic:\n%+v\n%+v", a, b)
	}
	lg := core.Preprocess(g, core.Options{Pool: pool})
	c := InstrumentedLotus(lg, cfg)
	d := InstrumentedLotus(lg, cfg)
	if c != d {
		t.Fatalf("lotus replay not deterministic:\n%+v\n%+v", c, d)
	}
	// MRC too.
	caps := []int{16, 256, 4096}
	m1 := ForwardMRC(g, caps)
	m2 := ForwardMRC(g, caps)
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("MRC not deterministic at %d", caps[i])
		}
	}
}

// The prefetch flag must thread through MachineConfig and only ever
// reduce modeled misses.
func TestPrefetchConfigPropagates(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 10, 17))
	base := tinyMachine()
	pf := base
	pf.Prefetch = true
	off := InstrumentedForward(g, base)
	on := InstrumentedForward(g, pf)
	if on.LLCMisses >= off.LLCMisses {
		t.Fatalf("prefetcher did not reduce misses: %d -> %d", off.LLCMisses, on.LLCMisses)
	}
	if on.Triangles != off.Triangles {
		t.Fatal("prefetcher changed the count")
	}
}
