package core

import (
	"testing"
)

func checkPartition(t *testing.T, w []uint64, p int, ranges []VertexRange) {
	t.Helper()
	if len(ranges) != p {
		t.Fatalf("got %d ranges for p=%d", len(ranges), p)
	}
	var pos uint32
	for b, r := range ranges {
		if r.Lo != pos {
			t.Fatalf("range %d starts at %d, want %d (ranges must be contiguous)", b, r.Lo, pos)
		}
		if r.Hi < r.Lo {
			t.Fatalf("range %d inverted: [%d, %d)", b, r.Lo, r.Hi)
		}
		pos = r.Hi
	}
	if int(pos) != len(w) {
		t.Fatalf("ranges cover [0, %d), want [0, %d)", pos, len(w))
	}
}

func TestPartitionByWeight(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		w := make([]uint64, 100)
		for i := range w {
			w[i] = 1
		}
		ranges := PartitionByWeight(w, 4)
		checkPartition(t, w, 4, ranges)
		for b, r := range ranges {
			if r.Len() != 25 {
				t.Fatalf("uniform weights: range %d has %d vertices, want 25", b, r.Len())
			}
		}
	})
	t.Run("skewed", func(t *testing.T) {
		// One vertex holds half the weight: its block must stay small
		// in vertex count while the others split the rest.
		w := make([]uint64, 1000)
		for i := range w {
			w[i] = 1
		}
		w[0] = 1000
		ranges := PartitionByWeight(w, 4)
		checkPartition(t, w, 4, ranges)
		if ranges[0].Len() >= 500 {
			t.Fatalf("skewed weights: heavy block spans %d vertices, want far fewer", ranges[0].Len())
		}
	})
	t.Run("more-blocks-than-vertices", func(t *testing.T) {
		w := []uint64{5, 5}
		ranges := PartitionByWeight(w, 8)
		checkPartition(t, w, 8, ranges)
	})
	t.Run("empty", func(t *testing.T) {
		ranges := PartitionByWeight(nil, 3)
		checkPartition(t, nil, 3, ranges)
	})
	t.Run("single-heavy-swallows-targets", func(t *testing.T) {
		// A single huge weight forces empty trailing ranges before it
		// and must not break coverage.
		w := []uint64{0, 0, 1 << 40, 0, 1}
		ranges := PartitionByWeight(w, 4)
		checkPartition(t, w, 4, ranges)
	})
}

// FuzzPartition exercises the partitioner over arbitrary weight
// shapes and grid sizes: whatever the input, the result must be p
// contiguous, sorted, disjoint ranges covering [0, n) — including
// empty ranges, single-vertex blocks and all-weight-in-one-block
// degeneracies.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255}, uint8(8))
	f.Add([]byte{0, 0, 0, 200, 0, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, pRaw uint8) {
		p := int(pRaw)%MaxGrid + 1
		w := make([]uint64, len(raw))
		for i, b := range raw {
			w[i] = uint64(b)
		}
		ranges := PartitionByWeight(w, p)
		checkPartition(t, w, p, ranges)
	})
}
