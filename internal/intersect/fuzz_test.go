package intersect

import (
	"sort"
	"testing"
)

// decodeSorted turns fuzz bytes into a strictly ascending uint32 list
// by accumulating byte deltas (+1 so the list is duplicate-free), and
// a parallel uint16 list truncated to the 16-bit ID space.
func decodeSorted(data []byte) ([]uint32, []uint16) {
	a32 := make([]uint32, 0, len(data))
	var x uint32
	for _, d := range data {
		x += uint32(d) + 1
		a32 = append(a32, x)
	}
	var a16 []uint16
	for _, v := range a32 {
		if v <= 0xffff {
			a16 = append(a16, uint16(v))
		}
	}
	return a32, a16
}

func widen(a []uint16) []uint32 {
	out := make([]uint32, len(a))
	for i, v := range a {
		out[i] = uint32(v)
	}
	return out
}

// FuzzIntersectAgreement asserts every intersection kernel — the
// 32-bit set, the NNN vertex bitmap and the 16-bit hub bitmap —
// computes the same count on arbitrary sorted inputs. Wired into
// `make fuzz`.
func FuzzIntersectAgreement(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{0, 0, 0, 0}, []byte{0})
	f.Add([]byte{255, 255, 255}, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, a16 := decodeSorted(da)
		b, b16 := decodeSorted(db)
		want := refCount(a, b)
		h := NewHashSet(len(a))
		// Universe = max element + 1: delta accumulation can exceed 2^16.
		maxv := uint32(0)
		if len(a) > 0 && a[len(a)-1] > maxv {
			maxv = a[len(a)-1]
		}
		if len(b) > 0 && b[len(b)-1] > maxv {
			maxv = b[len(b)-1]
		}
		bm := NewBitmap(int(maxv) + 1)
		kernels32 := map[string]uint64{
			"Merge":     Merge(a, b),
			"Binary":    Binary(a, b),
			"Galloping": Galloping(a, b),
			"Hash":      Hash(h, a, b),
			"Bitmap":    bitmapCount(bm, a, b),
		}
		for name, got := range kernels32 {
			if got != want {
				t.Errorf("%s(%v, %v) = %d, want %d", name, a, b, got, want)
			}
		}
		// The NNN vertex-bitmap kernel against Merge, both ways round
		// on one bitmap, so a missed clear shows up in the second.
		vbm := NewVertexBitmap(int(maxv) + 1)
		for _, p := range [][2][]uint32{{a, b}, {b, a}} {
			vbm.Mark(p[0])
			got := vbm.Count(p[1])
			vbm.Clear(p[0])
			if got != want {
				t.Errorf("VertexBitmap(%v, %v) = %d, want %d", p[0], p[1], got, want)
			}
		}
		for i, w := range vbm {
			if w != 0 {
				t.Fatalf("vertex bitmap word %d = %#x after Clear, want 0", i, w)
			}
		}
		// The HNN hub-bitmap kernel against Merge on the 16-bit
		// truncations, both ways round; one bitmap serves both cycles,
		// so a missed clear shows up in the second.
		want16 := Merge(widen(a16), widen(b16))
		hbm := new(HubBitmap)
		for _, p := range [][2][]uint16{{a16, b16}, {b16, a16}} {
			hbm.Mark(p[0])
			got := hbm.Count(p[1])
			hbm.Clear(p[0])
			if got != want16 {
				t.Errorf("HubBitmap(%v, %v) = %d, want %d", p[0], p[1], got, want16)
			}
		}
		for i, w := range hbm {
			if w != 0 {
				t.Fatalf("hub bitmap word %d = %#x after Clear, want 0", i, w)
			}
		}
		// LowerBound against the sort.Search oracle on the same lists.
		for _, x := range append(append([]uint32{0, 1 << 31}, a...), b...) {
			if got, want := LowerBound(b, x), sort.Search(len(b), func(i int) bool { return b[i] >= x }); got != want {
				t.Errorf("LowerBound(%v, %d) = %d, want %d", b, x, got, want)
			}
		}
	})
}
