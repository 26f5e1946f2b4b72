package locality

import (
	"math/rand"
	"testing"
)

func TestColdAccesses(t *testing.T) {
	p := NewProfiler()
	for l := uint64(0); l < 10; l++ {
		if d := p.Touch(l); d != -1 {
			t.Fatalf("first touch of %d gave distance %d", l, d)
		}
	}
	if p.colds != 10 || p.Total() != 10 || len(p.last) != 10 {
		t.Fatalf("counters: %d/%d/%d", p.colds, p.Total(), len(p.last))
	}
}

func TestImmediateReuseIsZero(t *testing.T) {
	p := NewProfiler()
	p.Touch(5)
	for i := 0; i < 4; i++ {
		if d := p.Touch(5); d != 0 {
			t.Fatalf("immediate reuse distance = %d", d)
		}
	}
}

func TestScanDistances(t *testing.T) {
	// Two sequential passes over N lines: every second-pass access
	// has stack distance N-1.
	const n = 64
	p := NewProfiler()
	for l := uint64(0); l < n; l++ {
		p.Touch(l)
	}
	for l := uint64(0); l < n; l++ {
		if d := p.Touch(l); d != n-1 {
			t.Fatalf("second-pass distance for %d = %d, want %d", l, d, n-1)
		}
	}
}

func TestInterleavedDistances(t *testing.T) {
	p := NewProfiler()
	p.Touch(1) // cold
	p.Touch(2) // cold
	p.Touch(3) // cold
	if d := p.Touch(2); d != 1 {
		t.Fatalf("distance(2) = %d, want 1 (only 3 since)", d)
	}
	if d := p.Touch(1); d != 2 {
		t.Fatalf("distance(1) = %d, want 2 (3 and 2 since)", d)
	}
	if d := p.Touch(1); d != 0 {
		t.Fatalf("distance(1) repeat = %d, want 0", d)
	}
}

// refDistance recomputes stack distance naively from the history.
func refDistance(history []uint64, i int) int {
	line := history[i]
	seen := map[uint64]bool{}
	for j := i - 1; j >= 0; j-- {
		if history[j] == line {
			return len(seen)
		}
		seen[history[j]] = true
	}
	return -1
}

func TestAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	history := make([]uint64, n)
	p := NewProfiler()
	for i := 0; i < n; i++ {
		line := uint64(rng.Intn(50))
		history[i] = line
		got := p.Touch(line)
		want := refDistance(history, i)
		if got != want {
			t.Fatalf("access %d (line %d): distance %d, want %d", i, line, got, want)
		}
	}
}

func TestMissRatioScan(t *testing.T) {
	// Cyclic scan over N lines: an LRU cache of >= N lines hits after
	// warmup; any smaller LRU cache thrashes (miss ratio 1).
	const n, passes = 128, 8
	p := NewProfiler()
	for pass := 0; pass < passes; pass++ {
		for l := uint64(0); l < n; l++ {
			p.Touch(l)
		}
	}
	coldShare := float64(n) / float64(n*passes)
	if mr := p.MissRatio(n); mr > coldShare+1e-9 {
		t.Fatalf("capacity %d miss ratio %.3f, want %.3f (cold only)", n, mr, coldShare)
	}
	if mr := p.MissRatio(n / 2); mr < 0.999 {
		t.Fatalf("undersized LRU should thrash on a cyclic scan, got %.3f", mr)
	}
}

func TestMRCMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewProfiler()
	for i := 0; i < 50000; i++ {
		// Zipf-ish: small lines much hotter.
		line := uint64(rng.Intn(1 + rng.Intn(1+rng.Intn(4096))))
		p.Touch(line)
	}
	caps := []int{1, 2, 4, 8, 16, 64, 256, 1024, 4096, 1 << 20}
	mrc := p.MRC(caps)
	for i := 1; i < len(mrc); i++ {
		if mrc[i] > mrc[i-1]+1e-12 {
			t.Fatalf("MRC not monotone: %.4f -> %.4f at %d lines", mrc[i-1], mrc[i], caps[i])
		}
	}
	if mrc[len(mrc)-1] < float64(p.colds)/float64(p.Total())-1e-12 {
		t.Fatal("MRC below cold floor")
	}
}

func TestEmptyProfiler(t *testing.T) {
	p := NewProfiler()
	if p.MissRatio(8) != 0 || len(p.MRC([]int{1, 2})) != 2 {
		t.Fatal("empty profiler misbehaves")
	}
}

func BenchmarkProfilerTouch(b *testing.B) {
	p := NewProfiler()
	rng := rand.New(rand.NewSource(1))
	lines := make([]uint64, 1<<16)
	for i := range lines {
		lines[i] = uint64(rng.Intn(1 << 14))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(lines[i&(1<<16-1)])
	}
}
