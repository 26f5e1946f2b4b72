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

// TriRows holds the rows h1 in [lo, hi) of a triangular bit array,
// stored contiguously in the h1-major packing but rebased so it
// allocates only its own rows' hi*(hi-1)/2 - lo*(lo-1)/2 bits. The
// whole array is the slice [0, h): the flat LOTUS structure's H2H,
// Alg 2 line 3. A shard of a row partition holds exactly the H2H rows
// of its vertex range, and the slices of a grid together cover the
// same bits as [0, h).
//
// It supports lock-free concurrent Set during preprocessing and
// wait-free probes during counting, and hands out RowProbe cursors
// that the phase-1 kernels (scalar and word-parallel) run against.
type TriRows struct {
	lo, hi uint32
	words  []uint64
}

// rowBase returns the triangular bit index where row r starts. r == 0
// multiplies by zero, so the wrapped r-1 is harmless.
func rowBase(r uint32) uint64 {
	return uint64(r) * uint64(r-1) / 2
}

// NewTriRows allocates a zeroed slice holding rows [lo, hi) of a
// triangular array. lo > hi is treated as an empty slice.
func NewTriRows(lo, hi uint32) *TriRows {
	if hi < lo {
		hi = lo
	}
	nbits := rowBase(hi) - rowBase(lo)
	return &TriRows{lo: lo, hi: hi, words: make([]uint64, (nbits+63)/64)}
}

// Lo returns the first row held.
func (t *TriRows) Lo() uint32 { return t.lo }

// Hi returns one past the last row held.
func (t *TriRows) Hi() uint32 { return t.hi }

// Bits returns the bit capacity of the slice.
func (t *TriRows) Bits() uint64 { return rowBase(t.hi) - rowBase(t.lo) }

// SizeBytes returns the allocated backing size in bytes. The paper's
// 64K hubs make the whole array 256 MB (§4.2); scaled-down hub counts
// shrink it quadratically.
func (t *TriRows) SizeBytes() int64 { return int64(len(t.words)) * 8 }

// index returns the slice-local bit index of the pair (h1, h2),
// h1 > h2, lo <= h1 < hi.
func (t *TriRows) index(h1, h2 uint32) uint64 {
	return rowBase(h1) - rowBase(t.lo) + uint64(h2)
}

// Set records the edge (h1, h2) with h1 the row (lo <= h1 < hi) and
// h2 < h1 the column; the arguments are not order-normalized. Safe
// for concurrent use.
func (t *TriRows) Set(h1, h2 uint32) {
	i := t.index(h1, h2)
	w := &t.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// IsSet probes the edge (h1, h2), h1 the row, h2 < h1.
func (t *TriRows) IsSet(h1, h2 uint32) bool {
	i := t.index(h1, h2)
	return t.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// Row returns a RowProbe over row h1 (lo <= h1 < hi). The probe is
// the same whatever rows the slice holds: Word and AndCount mask bits
// at h2 >= h1 to zero as in the whole array, because the slice keeps
// rows back-to-back with the same triangular row lengths.
func (t *TriRows) Row(h1 uint32) RowProbe {
	return RowProbe{words: t.words, base: rowBase(h1) - rowBase(t.lo), h1: h1}
}

// PopCount returns the number of set bits (this slice's hub-to-hub
// edges). The final backing word may carry no row bits, but unset
// padding is always zero.
func (t *TriRows) PopCount() uint64 {
	var n uint64
	for _, w := range t.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// Words exposes the backing word array for serialization. The slice
// aliases the array's storage.
func (t *TriRows) Words() []uint64 { return t.words }

// Density returns the fraction of set bits, Table 8 column 1.
func (t *TriRows) Density() float64 {
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
func (t *TriRows) ZeroCachelineFraction() float64 {
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

// NumCachelines returns the number of 64-byte lines backing the array.
func (t *TriRows) NumCachelines() int {
	return (len(t.words) + 7) / 8
}

// BitIndex exposes the h1-major bit index, used by the access
// profiler (Fig 9) to map probes onto cachelines.
func BitIndex(h1, h2 uint32) uint64 {
	if h1 < h2 {
		h1, h2 = h2, h1
	}
	return rowBase(h1) + uint64(h2)
}

// RowProbe is a cursor over one h1 row of a triangular array. It holds
// the backing words directly, so the counting kernels need not know
// which rows the TriRows it came from holds.
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

// Cacheline returns the 64-byte cacheline index holding bit (h1,h2),
// used by the Fig 9 H2H access profiler.
func Cacheline(h1, h2 uint32) uint64 {
	return BitIndex(h1, h2) / 512 // 512 bits per 64-byte line
}
