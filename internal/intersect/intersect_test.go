package intersect

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refCount is the trivially correct reference intersection.
func refCount(a, b []uint32) uint64 {
	set := map[uint32]bool{}
	for _, x := range a {
		set[x] = true
	}
	var n uint64
	seen := map[uint32]bool{}
	for _, x := range b {
		if set[x] && !seen[x] {
			n++
			seen[x] = true
		}
	}
	return n
}

func sortedUnique(xs []uint32, mod uint32) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, x := range xs {
		x %= mod
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestKernelsAgreeFixed(t *testing.T) {
	cases := [][2][]uint32{
		{{}, {}},
		{{1}, {}},
		{{}, {1}},
		{{1, 2, 3}, {2, 3, 4}},
		{{1, 5, 9}, {2, 6, 10}},
		{{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}},
		{{7}, {7}},
		{{1, 100, 1000}, {1000}},
	}
	h := NewHashSet(16)
	bm := NewBitmap(2048)
	for _, c := range cases {
		a, b := c[0], c[1]
		want := refCount(a, b)
		if got := Merge(a, b); got != want {
			t.Errorf("Merge(%v,%v) = %d, want %d", a, b, got, want)
		}
		if got := Binary(a, b); got != want {
			t.Errorf("Binary(%v,%v) = %d, want %d", a, b, got, want)
		}
		if got := Galloping(a, b); got != want {
			t.Errorf("Galloping(%v,%v) = %d, want %d", a, b, got, want)
		}
		if got := Hash(h, a, b); got != want {
			t.Errorf("Hash(%v,%v) = %d, want %d", a, b, got, want)
		}
		if got := bitmapCount(bm, a, b); got != want {
			t.Errorf("Bitmap(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
}

func TestKernelsAgreeProperty(t *testing.T) {
	// One vertex bitmap across every case, so a missed clear would
	// corrupt a later one.
	vbm := NewVertexBitmap(512)
	check := func(ra, rb []uint32) bool {
		a := sortedUnique(ra, 512)
		b := sortedUnique(rb, 512)
		want := refCount(a, b)
		h := NewHashSet(len(a) + 1)
		bm := NewBitmap(512)
		if Merge(a, b) != want || Binary(a, b) != want ||
			Galloping(a, b) != want || Hash(h, a, b) != want ||
			bitmapCount(bm, a, b) != want || vertexBitmapCount(t, vbm, a, b) != want {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bitmapCount counts |a ∩ b| by marking a in the new-vertex-listing
// bitmap and probing with b.
func bitmapCount(bm *Bitmap, a, b []uint32) uint64 {
	bm.Reset()
	for _, x := range a {
		bm.Set(x)
	}
	var n uint64
	for _, x := range b {
		if bm.Get(x) {
			n++
		}
	}
	return n
}

// hubBitmapCount runs one mark/probe/clear cycle of the HNN kernel
// and fails the test if the bitmap is not all-zero afterwards.
func hubBitmapCount(t *testing.T, bm *HubBitmap, a, b []uint16) uint64 {
	t.Helper()
	bm.Mark(a)
	n := bm.Count(b)
	for _, x := range b {
		if bm.Has(x) != (refCount([]uint32{uint32(x)}, widen(a)) == 1) {
			t.Fatalf("Has(%d) disagrees with membership in %v", x, a)
		}
	}
	bm.Clear(a)
	for i, w := range bm {
		if w != 0 {
			t.Fatalf("word %d = %#x after Clear(%v), want 0", i, w, a)
		}
	}
	return n
}

func TestHubBitmap(t *testing.T) {
	bm := new(HubBitmap)
	cases := []struct {
		a, b []uint16
		want uint64
	}{
		{[]uint16{1, 3, 5, 7}, []uint16{2, 3, 4, 7, 9}, 2},
		{nil, []uint16{2, 3}, 0},
		{[]uint16{2, 3}, nil, 0},
		// Word boundaries and the top of the 16-bit ID space.
		{[]uint16{0, 63, 64, 65, 65535}, []uint16{0, 62, 63, 64, 127, 65534, 65535}, 4},
	}
	for _, c := range cases {
		if got := hubBitmapCount(t, bm, c.a, c.b); got != c.want {
			t.Errorf("HubBitmap(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// vertexBitmapCount runs one mark/probe/clear cycle of the NNN kernel
// and fails the test if Has disagrees with membership or the bitmap is
// not all-zero afterwards.
func vertexBitmapCount(t *testing.T, bm VertexBitmap, a, b []uint32) uint64 {
	t.Helper()
	bm.Mark(a)
	n := bm.Count(b)
	for _, x := range b {
		if bm.Has(x) != (refCount([]uint32{x}, a) == 1) {
			t.Fatalf("Has(%d) disagrees with membership in %v", x, a)
		}
	}
	bm.Clear(a)
	for i, w := range bm {
		if w != 0 {
			t.Fatalf("word %d = %#x after Clear(%v), want 0", i, w, a)
		}
	}
	return n
}

func TestVertexBitmap(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		if got, want := len(NewVertexBitmap(n)), (n+63)/64; got != want {
			t.Errorf("NewVertexBitmap(%d) has %d words, want %d", n, got, want)
		}
	}
	bm := NewVertexBitmap(130)
	cases := []struct {
		a, b []uint32
		want uint64
	}{
		{[]uint32{1, 3, 5, 7}, []uint32{2, 3, 4, 7, 9}, 2},
		{nil, []uint32{2, 3}, 0},
		{[]uint32{2, 3}, nil, 0},
		// Word boundaries and the last ID of the universe.
		{[]uint32{0, 63, 64, 65, 128, 129}, []uint32{0, 62, 63, 64, 127, 128, 129}, 5},
	}
	for _, c := range cases {
		if got := vertexBitmapCount(t, bm, c.a, c.b); got != c.want {
			t.Errorf("VertexBitmap(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestKernels16AgreeProperty checks the 16-bit hub-bitmap kernel
// against Merge on random sorted inputs, reusing one bitmap so a
// missed clear would corrupt a later case.
func TestKernels16AgreeProperty(t *testing.T) {
	narrow := func(xs []uint32) []uint16 {
		out := make([]uint16, len(xs))
		for i, x := range xs {
			out[i] = uint16(x)
		}
		return out
	}
	bm := new(HubBitmap)
	check := func(ra, rb []uint32) bool {
		a32 := sortedUnique(ra, 1<<16)
		b32 := sortedUnique(rb, 1<<16)
		a, b := narrow(a32), narrow(b32)
		return hubBitmapCount(t, bm, a, b) == Merge(a32, b32)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBound(t *testing.T) {
	cases := [][]uint32{
		{},
		{5},
		{1, 3, 5, 7, 9},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{10, 10, 20, 20, 30}, // duplicates still find the first
	}
	for _, s := range cases {
		for x := uint32(0); x < 35; x++ {
			want := sort.Search(len(s), func(i int) bool { return s[i] >= x })
			if got := LowerBound(s, x); got != want {
				t.Errorf("LowerBound(%v, %d) = %d, want %d", s, x, got, want)
			}
			s16 := make([]uint16, len(s))
			for i, v := range s {
				s16[i] = uint16(v)
			}
			if got := LowerBound16(s16, uint16(x)); got != want {
				t.Errorf("LowerBound16(%v, %d) = %d, want %d", s, x, got, want)
			}
		}
	}
}

func TestUseGalloping(t *testing.T) {
	cases := []struct {
		la, lb int
		want   bool
	}{
		{0, 100, false}, // empty short list: merge exits immediately
		{1, 15, false},  // below the ratio
		{1, 16, true},   // at the ratio
		{4, 64, true},   // 16x
		{4, 63, false},  // just under
		{64, 4, true},   // order-insensitive
		{100, 100, false},
	}
	for _, c := range cases {
		if got := UseGalloping(c.la, c.lb); got != c.want {
			t.Errorf("UseGalloping(%d, %d) = %v, want %v", c.la, c.lb, got, c.want)
		}
	}
}

func TestHashSetReuse(t *testing.T) {
	h := NewHashSet(8)
	for round := 0; round < 5; round++ {
		h.Reset()
		base := uint32(round * 100)
		for i := uint32(0); i < 8; i++ {
			h.Add(base + i)
		}
		for i := uint32(0); i < 8; i++ {
			if !h.Contains(base + i) {
				t.Fatalf("round %d: missing %d", round, base+i)
			}
		}
		if round > 0 && h.Contains(uint32((round-1)*100)) {
			t.Fatalf("round %d: stale element survived Reset", round)
		}
	}
}

func TestHashSetEpochWrap(t *testing.T) {
	h := NewHashSet(4)
	h.epoch = ^uint32(0) - 1
	h.Add(42)
	h.Reset() // epoch -> max
	h.Add(7)
	h.Reset() // wraps to 0 -> forced clear, epoch 1
	if h.Contains(42) || h.Contains(7) {
		t.Fatal("stale entries visible after epoch wrap")
	}
	h.Add(9)
	if !h.Contains(9) {
		t.Fatal("set unusable after epoch wrap")
	}
}

func TestHashSetDuplicateAdd(t *testing.T) {
	h := NewHashSet(4)
	h.Add(5)
	h.Add(5)
	h.Add(5)
	if !h.Contains(5) {
		t.Fatal("lost element after duplicate adds")
	}
	if got := Hash(h, []uint32{5, 5, 6}, []uint32{5, 6, 7}); got != 2 {
		// Hash Resets first, so duplicates in a collapse.
		t.Fatalf("Hash with duplicates = %d, want 2", got)
	}
}

func TestBitmapResetSparse(t *testing.T) {
	bm := NewBitmap(100000)
	bm.Set(1)
	bm.Set(99999)
	bm.Reset()
	if bm.Get(1) || bm.Get(99999) {
		t.Fatal("Reset left bits set")
	}
	if len(bm.dirty) != 0 {
		t.Fatal("dirty list not cleared")
	}
}

func TestMergeTracedAccessCounts(t *testing.T) {
	a := []uint32{1, 2, 3}
	b := []uint32{3, 4}
	var accesses int
	var hubAccesses int
	n := MergeTraced(a, b, func(x uint32, fromA bool) {
		accesses++
		if x < 2 { // pretend IDs < 2 are hubs
			hubAccesses++
		}
	})
	if n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	if accesses == 0 || hubAccesses == 0 {
		t.Fatalf("tracing callback not invoked: %d/%d", hubAccesses, accesses)
	}
}

func BenchmarkIntersectKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(n int) []uint32 {
		s := make([]uint32, 0, n)
		x := uint32(0)
		for i := 0; i < n; i++ {
			x += 1 + uint32(rng.Intn(8))
			s = append(s, x)
		}
		return s
	}
	a, bb := mk(128), mk(128)
	short, long := mk(8), mk(4096)
	h := NewHashSet(4096)
	bm := NewBitmap(1 << 20)
	b.Run("Merge/balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Merge(a, bb)
		}
	})
	b.Run("Binary/balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Binary(a, bb)
		}
	})
	b.Run("Galloping/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Galloping(short, long)
		}
	})
	b.Run("Merge/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Merge(short, long)
		}
	})
	short16 := make([]uint16, len(short))
	for i, x := range short {
		short16[i] = uint16(x)
	}
	long16 := make([]uint16, len(long))
	for i, x := range long {
		long16[i] = uint16(x)
	}
	hbm := new(HubBitmap)
	b.Run("HubBitmap/skewed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hbm.Mark(short16)
			hbm.Count(long16)
			hbm.Clear(short16)
		}
	})
	b.Run("Hash/balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Hash(h, a, bb)
		}
	})
	b.Run("Bitmap/balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitmapCount(bm, a, bb)
		}
	})
}
