package bitarray

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestTriBasic(t *testing.T) {
	tr := NewTriRows(0, 8)
	if tr.Bits() != 28 {
		t.Fatalf("Bits = %d, want 28", tr.Bits())
	}
	tr.Set(5, 2)
	if !tr.IsSet(5, 2) {
		t.Fatal("Set(5,2) not visible")
	}
	if tr.IsSet(5, 3) {
		t.Fatal("spurious bits set")
	}
	tr.Set(1, 0)
	if BitIndex(1, 0) != 0 {
		t.Fatalf("BitIndex(1,0) = %d, want 0", BitIndex(1, 0))
	}
	if !tr.IsSet(1, 0) {
		t.Fatal("bit 0 not set")
	}
}

func TestTriIndexFormula(t *testing.T) {
	// Paper: for h1 > h2 >= 0, index = h1(h1-1)/2 + h2.
	cases := []struct {
		h1, h2 uint32
		want   uint64
	}{
		{1, 0, 0}, {2, 0, 1}, {2, 1, 2}, {3, 0, 3}, {3, 2, 5}, {100, 7, 4957},
	}
	for _, c := range cases {
		if got := BitIndex(c.h1, c.h2); got != c.want {
			t.Errorf("BitIndex(%d,%d) = %d, want %d", c.h1, c.h2, got, c.want)
		}
	}
}

func TestTriAllPairsDistinct(t *testing.T) {
	// Every pair must map to a distinct bit and round-trip exactly.
	const n = 40
	tr := NewTriRows(0, n)
	for h1 := uint32(1); h1 < n; h1++ {
		for h2 := uint32(0); h2 < h1; h2++ {
			if tr.IsSet(h1, h2) {
				t.Fatalf("(%d,%d) set before Set — index collision", h1, h2)
			}
			tr.Set(h1, h2)
			if !tr.IsSet(h1, h2) {
				t.Fatalf("(%d,%d) lost", h1, h2)
			}
		}
	}
	if tr.PopCount() != uint64(n*(n-1)/2) {
		t.Fatalf("PopCount = %d, want %d", tr.PopCount(), n*(n-1)/2)
	}
	if tr.Density() != 1 {
		t.Fatalf("full array density = %v", tr.Density())
	}
}

func TestTriZeroAndOneHub(t *testing.T) {
	tr := NewTriRows(0, 0)
	if tr.Bits() != 0 || tr.SizeBytes() != 0 {
		t.Fatal("empty array not empty")
	}
	tr1 := NewTriRows(0, 1)
	if tr1.Bits() != 0 {
		t.Fatalf("one hub should have 0 bits, got %d", tr1.Bits())
	}
	if tr1.ZeroCachelineFraction() != 0 {
		t.Fatal("no cachelines -> fraction 0")
	}
}

// randomPair draws a hub pair (h1, h2), h1 > h2, from [0, n); equal
// draws are rejected.
func randomPair(rng *rand.Rand, n int) (h1, h2 uint32, ok bool) {
	h1, h2 = uint32(rng.Intn(n)), uint32(rng.Intn(n))
	if h1 < h2 {
		h1, h2 = h2, h1
	}
	return h1, h2, h1 != h2
}

func TestTriConcurrentSet(t *testing.T) {
	const n = 256
	tr := NewTriRows(0, n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				if h1, h2, ok := randomPair(rng, n); ok {
					tr.Set(h1, h2)
				}
			}
		}(w)
	}
	wg.Wait()
	// Replay sequentially and compare.
	ref := NewTriRows(0, n)
	for w := 0; w < 8; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 2000; i++ {
			if h1, h2, ok := randomPair(rng, n); ok {
				ref.Set(h1, h2)
			}
		}
	}
	if tr.PopCount() != ref.PopCount() {
		t.Fatalf("concurrent PopCount %d != sequential %d", tr.PopCount(), ref.PopCount())
	}
	for i := range tr.words {
		if tr.words[i] != ref.words[i] {
			t.Fatalf("word %d differs", i)
		}
	}
}

func TestRowProbeMatchesIsSet(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(2 + rng.Intn(100))
		tr := NewTriRows(0, n)
		for i := 0; i < 50; i++ {
			if h1, h2, ok := randomPair(rng, int(n)); ok {
				tr.Set(h1, h2)
			}
		}
		for h1 := uint32(1); h1 < n; h1++ {
			row := tr.Row(h1)
			for h2 := uint32(0); h2 < h1; h2++ {
				if row.IsSet(h2) != tr.IsSet(h1, h2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTriRowsView checks that a slice [lo, hi) of rows agrees with the
// whole array [0, n) set the same way: bits set through the slice read
// back identically, its row probes agree with the whole array's, and
// the popcounts match over the slice's rows.
func TestTriRowsView(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(2 + rng.Intn(100))
		lo := uint32(rng.Intn(int(n)))
		hi := lo + uint32(rng.Intn(int(n-lo)+1))
		whole, rows := NewTriRows(0, n), NewTriRows(lo, hi)
		if rows.Lo() != lo || rows.Hi() != hi || rows.Bits() != whole.Bits()-rowBase(lo)-(rowBase(n)-rowBase(hi)) {
			return false
		}
		var inSlice uint64
		for i := 0; i < 50; i++ {
			h1 := uint32(1 + rng.Intn(int(n)-1))
			h2 := uint32(rng.Intn(int(h1)))
			if !whole.IsSet(h1, h2) && h1 >= lo && h1 < hi {
				rows.Set(h1, h2)
				inSlice++
			}
			whole.Set(h1, h2)
		}
		for h1 := max(lo, 1); h1 < hi; h1++ {
			for h2 := uint32(0); h2 < h1; h2++ {
				if rows.IsSet(h1, h2) != whole.IsSet(h1, h2) || rows.Row(h1).IsSet(h2) != whole.Row(h1).IsSet(h2) {
					return false
				}
			}
		}
		return rows.PopCount() == inSlice
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCachelineFraction(t *testing.T) {
	// 64 hubs -> 2016 bits -> 32 words -> 4 cachelines.
	tr := NewTriRows(0, 64)
	if tr.NumCachelines() != 4 {
		t.Fatalf("NumCachelines = %d, want 4", tr.NumCachelines())
	}
	if f := tr.ZeroCachelineFraction(); f != 1 {
		t.Fatalf("empty array zero fraction = %v, want 1", f)
	}
	tr.Set(1, 0) // touches line 0 only
	if f := tr.ZeroCachelineFraction(); f != 0.75 {
		t.Fatalf("zero fraction = %v, want 0.75", f)
	}
}

func TestCachelineMapping(t *testing.T) {
	if Cacheline(1, 0) != 0 {
		t.Fatal("bit 0 must be on line 0")
	}
	// Bit index 512 is the first bit of line 1. h1=32: base = 32*31/2 = 496;
	// 496+16 = 512 -> (32,16) on line 1.
	if Cacheline(32, 16) != 1 {
		t.Fatalf("Cacheline(32,16) = %d, want 1", Cacheline(32, 16))
	}
}

func TestSizeBytesPaperScale(t *testing.T) {
	// The paper's 64K hubs: 2^16 * (2^16 -1)/2 bits ≈ 2^31 bits = 256 MB.
	tr := NewTriRows(0, 1<<16)
	gb := tr.SizeBytes()
	if gb < 255<<20 || gb > 257<<20 {
		t.Fatalf("64K-hub H2H = %d bytes, want ~256 MB", gb)
	}
}

func BenchmarkTriSet(b *testing.B) {
	tr := NewTriRows(0, 1<<12)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]uint32, 0, 4096)
	for len(pairs) < cap(pairs) {
		if h1, h2, ok := randomPair(rng, 1<<12); ok {
			pairs = append(pairs, [2]uint32{h1, h2})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&4095]
		tr.Set(p[0], p[1])
	}
}

func BenchmarkTriIsSet(b *testing.B) {
	tr := NewTriRows(0, 1<<12)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if h1, h2, ok := randomPair(rng, 1<<12); ok {
			tr.Set(h1, h2)
		}
	}
	pairs := make([][2]uint32, 0, 4096)
	for len(pairs) < cap(pairs) {
		if h1, h2, ok := randomPair(rng, 1<<12); ok {
			pairs = append(pairs, [2]uint32{h1, h2})
		}
	}
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		p := pairs[i&4095]
		sink = tr.IsSet(p[0], p[1])
	}
	_ = sink
}

// TestRowWordMatchesIsSet cross-checks the word-parallel row view
// against single-bit probes on randomly populated arrays of sizes
// straddling every word-alignment edge case (rows shorter than a
// word, rows crossing backing-word boundaries, the final partial
// word of the last row).
func TestRowWordMatchesIsSet(t *testing.T) {
	for _, n := range []uint32{0, 1, 2, 3, 5, 63, 64, 65, 127, 128, 129, 200, 513} {
		tr := NewTriRows(0, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for e := 0; e < int(n)*4; e++ {
			if h1, h2, ok := randomPair(rng, int(n)); ok {
				tr.Set(h1, h2)
			}
		}
		for h1 := uint32(0); h1 < n; h1++ {
			row := tr.Row(h1)
			if got, want := row.NumWords(), (h1+63)/64; got != want {
				t.Fatalf("n=%d h1=%d: NumWords = %d, want %d", n, h1, got, want)
			}
			for w := uint32(0); w < row.NumWords(); w++ {
				word := row.Word(w)
				for b := uint32(0); b < 64; b++ {
					h2 := w*64 + b
					want := h2 < h1 && row.IsSet(h2)
					if got := word&(1<<b) != 0; got != want {
						t.Fatalf("n=%d h1=%d h2=%d: Word bit = %v, IsSet = %v", n, h1, h2, got, want)
					}
				}
			}
			// Words past the row must read zero.
			if got := row.Word(row.NumWords()); got != 0 {
				t.Fatalf("n=%d h1=%d: Word past end = %#x, want 0", n, h1, got)
			}
		}
	}
}

func BenchmarkTriRowWord(b *testing.B) {
	tr := NewTriRows(0, 1<<12)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		if h1, h2, ok := randomPair(rng, 1<<12); ok {
			tr.Set(h1, h2)
		}
	}
	row := tr.Row(1<<12 - 1)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += row.Word(uint32(i) & 63)
	}
	_ = sink
}

// TestAndCountMatchesWordLoop checks the streaming AndCount against
// the per-word Word()&bm reference on random contents and bitmaps,
// across sizes that exercise every alignment of the packed rows.
func TestAndCountMatchesWordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []uint32{1, 2, 3, 5, 63, 64, 65, 127, 128, 129, 200, 513} {
		tri := NewTriRows(0, n)
		for k := 0; k < int(n)*2; k++ {
			h1 := uint32(rng.Intn(int(n)))
			if h1 == 0 {
				continue
			}
			tri.Set(h1, uint32(rng.Intn(int(h1))))
		}
		bm := make([]uint64, (n+63)/64)
		for i := range bm {
			bm[i] = rng.Uint64()
		}
		for h1 := uint32(0); h1 < n; h1++ {
			row := tri.Row(h1)
			var want uint64
			for w := uint32(0); w < row.NumWords(); w++ {
				want += uint64(bits.OnesCount64(row.Word(w) & bm[w]))
			}
			if got := row.AndCount(bm); got != want {
				t.Fatalf("n=%d h1=%d: AndCount=%d, Word-loop=%d", n, h1, got, want)
			}
		}
	}
}

func BenchmarkTriAndCount(b *testing.B) {
	const n = 512
	tri := NewTriRows(0, n)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 4096; k++ {
		h1 := uint32(1 + rng.Intn(n-1))
		tri.Set(h1, uint32(rng.Intn(int(h1))))
	}
	bm := make([]uint64, n/64)
	for i := range bm {
		bm[i] = rng.Uint64()
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += tri.Row(uint32(1 + i%(n-1))).AndCount(bm)
	}
	_ = sink
}
