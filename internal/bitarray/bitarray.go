// Package bitarray implements the H2H triangular bit array at the
// heart of LOTUS (§4.2): a dense, cache-resident adjacency structure
// for hub-to-hub edges. For hubs h1 > h2 >= 0, the bit with index
// h1*(h1-1)/2 + h2 records whether the edge (h1,h2) exists. The array
// is "h1-major", so the bits of consecutive h2 values for a fixed h1
// are contiguous — the property §4.4.1 exploits by reusing the
// h1*(h1-1)/2 base while scanning h2.
package bitarray

import (
	"math/bits"
	"sync/atomic"
)

// Tri is a triangular bit array over n hub IDs. It supports lock-free
// concurrent Set during parallel preprocessing and wait-free IsSet
// during counting.
type Tri struct {
	n     uint32
	words []uint64
}

// NewTri allocates a zeroed triangular array for n hubs, occupying
// n*(n-1)/2 bits as in Alg 2 line 3.
func NewTri(n uint32) *Tri {
	bits := uint64(n) * uint64(n-1) / 2
	if n == 0 {
		bits = 0
	}
	return &Tri{n: n, words: make([]uint64, (bits+63)/64)}
}

// N returns the number of hub IDs covered.
func (t *Tri) N() uint32 { return t.n }

// Bits returns the bit capacity n*(n-1)/2.
func (t *Tri) Bits() uint64 {
	if t.n == 0 {
		return 0
	}
	return uint64(t.n) * uint64(t.n-1) / 2
}

// SizeBytes returns the allocated backing size in bytes. For the
// paper's 64K hubs this is 256 MB (§4.2); scaled-down hub counts
// shrink it quadratically.
func (t *Tri) SizeBytes() int64 { return int64(len(t.words)) * 8 }

// Words exposes the backing word array for serialization. The slice
// aliases the array's storage.
func (t *Tri) Words() []uint64 { return t.words }

// Rows returns the whole array as the row slice [0, n), aliasing its
// storage: a TriRows starting at row 0 has the same packing as Tri, so
// code written against row slices (the preprocessing walk, the
// phase-1 hub-pair kernel) serves the monolithic array unchanged.
func (t *Tri) Rows() *TriRows { return &TriRows{lo: 0, hi: t.n, words: t.words} }

// index returns the bit index of the pair (h1, h2), h1 > h2.
func index(h1, h2 uint32) uint64 {
	return uint64(h1)*uint64(h1-1)/2 + uint64(h2)
}

// BitIndex exposes the h1-major bit index, used by the access
// profiler (Fig 9) to map probes onto cachelines.
func BitIndex(h1, h2 uint32) uint64 {
	if h1 < h2 {
		h1, h2 = h2, h1
	}
	return index(h1, h2)
}

// Set records the edge (h1, h2). Arguments may come in either order;
// h1 == h2 (a self pair) is ignored. Safe for concurrent use.
func (t *Tri) Set(h1, h2 uint32) {
	if h1 == h2 {
		return
	}
	if h1 < h2 {
		h1, h2 = h2, h1
	}
	i := index(h1, h2)
	w := &t.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// IsSet reports whether the edge (h1, h2) is present; the two-hub
// connectivity test of Alg 3 line 5. It is a plain load: counting
// never runs concurrently with preprocessing.
func (t *Tri) IsSet(h1, h2 uint32) bool {
	if h1 == h2 {
		return false
	}
	if h1 < h2 {
		h1, h2 = h2, h1
	}
	i := index(h1, h2)
	return t.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// Row returns, for a fixed h1, a RowProbe positioned at the start of
// h1's bit row, letting the inner loop of Alg 3 probe consecutive h2
// bits without recomputing the triangular base.
func (t *Tri) Row(h1 uint32) RowProbe {
	return RowProbe{words: t.words, base: uint64(h1) * uint64(h1-1) / 2, h1: h1}
}

// RowProbe is a cursor over one h1 row of a triangular array. It holds
// the backing words directly (not the array), so both the full Tri and
// the TriRows row-slice hand out the same probe type and the counting
// kernels stay agnostic about which storage a row came from.
type RowProbe struct {
	words []uint64
	base  uint64
	h1    uint32
}

// IsSet probes bit h2 of the row (h2 must be < h1).
func (r RowProbe) IsSet(h2 uint32) bool {
	i := r.base + uint64(h2)
	return r.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// NumWords returns the number of 64-bit words returned by Word: the
// row's h1 bits (h2 in [0, h1)) rounded up to whole words.
func (r RowProbe) NumWords() uint32 { return (r.h1 + 63) / 64 }

// Word returns the 64 row bits covering h2 in [64*w, 64*w+64),
// aligned to the h2 index space. The triangular array packs rows
// back-to-back with no word alignment, so the result is assembled
// from up to two backing words; bits at h2 >= h1 — which belong to
// neighbouring rows in the packed array — read as zero, giving the
// caller the "h2 < h1" mask of Alg 3 line 5 for free. This is the
// word-parallel counterpart of IsSet: one Word carries 64 probes.
func (r RowProbe) Word(w uint32) uint64 {
	rem := int64(r.h1) - int64(w)*64
	if rem <= 0 {
		return 0
	}
	start := r.base + uint64(w)*64
	i := int(start >> 6)
	sh := start & 63
	words := r.words
	x := words[i] >> sh
	// The guard covers the final partial word of the last row, whose
	// valid bits never spill into a (nonexistent) next backing word.
	if sh != 0 && i+1 < len(words) {
		x |= words[i+1] << (64 - sh)
	}
	if rem < 64 {
		x &= uint64(1)<<uint64(rem) - 1
	}
	return x
}

// AndCount returns the popcount of the row ANDed word-wise against
// bm, i.e. |{h2 < h1 : row bit h2 set and bm bit h2 set}| — the whole
// phase-1 inner loop for one h1 in NumWords() word operations. It is
// Word(w)&bm[w] summed, but streams the unaligned row through a
// single rolling shift register instead of re-assembling each word
// from scratch, which is what makes the word kernel's inner loop a
// handful of ALU ops per 64 probes. bm must have at least NumWords()
// words.
func (r RowProbe) AndCount(bm []uint64) uint64 {
	nw := int(r.h1+63) / 64
	if nw == 0 {
		return 0
	}
	bm = bm[:nw]
	words := r.words
	i := int(r.base >> 6)
	sh := r.base & 63
	var total int
	if sh == 0 {
		for w, m := range bm {
			x := words[i+w]
			if rem := r.h1 - uint32(w)*64; rem < 64 {
				x &= uint64(1)<<rem - 1
			}
			total += bits.OnesCount64(x & m)
		}
		return uint64(total)
	}
	cur := words[i]
	for w, m := range bm {
		x := cur >> sh
		i++
		// The final partial word of the packed array has no successor
		// to borrow high bits from; its valid bits are all in cur.
		if i < len(words) {
			cur = words[i]
			x |= cur << (64 - sh)
		}
		if rem := r.h1 - uint32(w)*64; rem < 64 {
			x &= uint64(1)<<rem - 1
		}
		total += bits.OnesCount64(x & m)
	}
	return uint64(total)
}

// PopCount returns the number of set bits (hub-to-hub edges).
func (t *Tri) PopCount() uint64 {
	var n uint64
	for _, w := range t.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// Density returns the fraction of set bits, Table 8 column 1.
func (t *Tri) Density() float64 {
	b := t.Bits()
	if b == 0 {
		return 0
	}
	return float64(t.PopCount()) / float64(b)
}

// ZeroCachelineFraction returns the fraction of 64-byte-aligned blocks
// of the array containing 512 zero bits, Table 8 column 2. Web graphs
// in the paper show 75-95% zero blocks (hubs cluster); social networks
// 5-62%.
func (t *Tri) ZeroCachelineFraction() float64 {
	const wordsPerLine = 8 // 64 bytes
	if len(t.words) == 0 {
		return 0
	}
	lines := (len(t.words) + wordsPerLine - 1) / wordsPerLine
	zero := 0
	for l := 0; l < lines; l++ {
		allZero := true
		for w := l * wordsPerLine; w < len(t.words) && w < (l+1)*wordsPerLine; w++ {
			if t.words[w] != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			zero++
		}
	}
	return float64(zero) / float64(lines)
}

// Cacheline returns the 64-byte cacheline index holding bit (h1,h2),
// used by the Fig 9 H2H access profiler.
func Cacheline(h1, h2 uint32) uint64 {
	return BitIndex(h1, h2) / 512 // 512 bits per 64-byte line
}

// NumCachelines returns the number of 64-byte lines backing the array.
func (t *Tri) NumCachelines() int {
	return (len(t.words) + 7) / 8
}
