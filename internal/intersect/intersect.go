// Package intersect implements the sorted-set intersection kernels
// used by triangle counting: merge join, (galloping) binary search,
// hashing and bitmap lookup — the four strategies §2.2 lists. All
// kernels operate on ascending uint32 slices and return the size of
// the intersection, which is the number of triangles closed by one
// (v,u) edge in the Forward algorithm.
package intersect

// Merge counts |a ∩ b| with a linear merge join. This is the kernel
// the paper uses for the HNN and NNN phases (§4.4.3): neighbour lists
// of non-hubs are short, so the branchy but allocation-free merge
// wins. Here it serves NNN; HNN's 16-bit rows use HubBitmap.
func Merge(a, b []uint32) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// MergeBranchless counts |a ∩ b| with a comparison-driven merge whose
// cursor advances are computed arithmetically instead of via
// conditional branches, trading a few extra ALU ops for the removal
// of the two unpredictable branches per step — the mitigation [32]
// pursues with radix binning, in its simplest form. Fig 5c's
// branch-misprediction comparison motivates having it available.
func MergeBranchless(a, b []uint32) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		eq := btoi(x == y)
		n += uint64(eq)
		// Advance a when x <= y, b when y <= x; both on equality.
		i += btoi(x <= y)
		j += btoi(y <= x)
	}
	return n
}

// btoi converts a bool to 0/1; the compiler lowers this to SETcc,
// keeping the merge loop free of data-dependent jumps.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// LowerBound returns the first index i with s[i] >= x (len(s) when no
// such element exists). It is the inlined, branch-free binary search
// the hot kernels use in place of sort.Search: the window halves with
// an arithmetic cursor advance instead of a data-dependent jump, and
// there is no closure call per probe.
func LowerBound(s []uint32, x uint32) int {
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		base += btoi(s[base+half-1] < x) * half
		n -= half
	}
	if n == 1 {
		base += btoi(s[base] < x)
	}
	return base
}

// LowerBound16 is LowerBound for the 16-bit hub IDs of HE rows.
func LowerBound16(s []uint16, x uint16) int {
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		base += btoi(s[base+half-1] < x) * half
		n -= half
	}
	if n == 1 {
		base += btoi(s[base] < x)
	}
	return base
}

// Binary counts |a ∩ b| by binary-searching each element of the
// shorter list in the longer one — the strategy of Fox et al. [31]
// that the paper contrasts with merge join in §3.3/§6.3.
func Binary(a, b []uint32) uint64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var n uint64
	lo := 0
	for _, x := range a {
		// Search only the suffix past the previous match; both
		// lists are ascending so matches advance monotonically.
		i := lo + LowerBound(b[lo:], x)
		if i < len(b) && b[i] == x {
			n++
			lo = i + 1
		} else {
			lo = i
		}
		if lo >= len(b) {
			break
		}
	}
	return n
}

// Galloping counts |a ∩ b| with exponential (galloping) search, which
// beats plain binary search when |a| << |b|.
func Galloping(a, b []uint32) uint64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var n uint64
	j := 0
	for _, x := range a {
		// Gallop to find the window containing x.
		step := 1
		k := j
		for k+step < len(b) && b[k+step] < x {
			k += step
			step <<= 1
		}
		hi := k + step
		if hi > len(b) {
			hi = len(b)
		}
		i := k + LowerBound(b[k:hi], x)
		if i < len(b) && b[i] == x {
			n++
			j = i + 1
		} else {
			j = i
		}
		if j >= len(b) {
			break
		}
	}
	return n
}

// HashSet is a reusable open-addressing set for hash-based
// intersection (the Forward-hashed variant of Schank & Wagner). The
// zero value is unusable; create with NewHashSet.
type HashSet struct {
	slots []uint32
	mask  uint32
	// stamp-based clearing: a slot is live iff stamps[i] == epoch.
	stamps []uint32
	epoch  uint32
}

// NewHashSet returns a set able to hold n elements with load factor
// <= 0.5.
func NewHashSet(n int) *HashSet {
	cap := 16
	for cap < 2*n {
		cap <<= 1
	}
	return &HashSet{
		slots:  make([]uint32, cap),
		stamps: make([]uint32, cap),
		mask:   uint32(cap - 1),
		epoch:  1,
	}
}

// Reset empties the set in O(1) by bumping the epoch.
func (h *HashSet) Reset() {
	h.epoch++
	if h.epoch == 0 { // wrapped: clear stamps for correctness
		for i := range h.stamps {
			h.stamps[i] = 0
		}
		h.epoch = 1
	}
}

func hash32(x uint32) uint32 {
	// Murmur3 finalizer: cheap and well distributed.
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Add inserts x.
func (h *HashSet) Add(x uint32) {
	i := hash32(x) & h.mask
	for h.stamps[i] == h.epoch {
		if h.slots[i] == x {
			return
		}
		i = (i + 1) & h.mask
	}
	h.slots[i] = x
	h.stamps[i] = h.epoch
}

// Contains reports membership of x.
func (h *HashSet) Contains(x uint32) bool {
	i := hash32(x) & h.mask
	for h.stamps[i] == h.epoch {
		if h.slots[i] == x {
			return true
		}
		i = (i + 1) & h.mask
	}
	return false
}

// Hash counts |a ∩ b| by loading a into the set and probing with b.
// The set must have capacity for len(a) elements.
func Hash(h *HashSet, a, b []uint32) uint64 {
	h.Reset()
	for _, x := range a {
		h.Add(x)
	}
	var n uint64
	for _, x := range b {
		if h.Contains(x) {
			n++
		}
	}
	return n
}

// Bitmap is a reusable dense bitmap for bitmap-lookup intersection
// (Latapy's new-vertex-listing strategy [48]).
type Bitmap struct {
	words []uint64
	// dirty tracks set word indices so Reset is proportional to the
	// last population, not the universe.
	dirty []int
}

// NewBitmap returns a bitmap over the universe [0, n).
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64)}
}

// Set marks x.
func (b *Bitmap) Set(x uint32) {
	w := int(x >> 6)
	bit := uint64(1) << (x & 63)
	if b.words[w]&bit == 0 {
		if b.words[w] == 0 {
			b.dirty = append(b.dirty, w)
		}
		b.words[w] |= bit
	}
}

// Get reports whether x is marked.
func (b *Bitmap) Get(x uint32) bool {
	return b.words[x>>6]&(uint64(1)<<(x&63)) != 0
}

// Reset clears all marked bits.
func (b *Bitmap) Reset() {
	for _, w := range b.dirty {
		b.words[w] = 0
	}
	b.dirty = b.dirty[:0]
}

// BitmapCount counts |a ∩ b| by marking a and probing with b.
func BitmapCount(bm *Bitmap, a, b []uint32) uint64 {
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

// HubBitmap is a dense bitmap over the whole 16-bit hub ID space of
// HE rows (§4.2): 2^16 bits in 1024 words, 8 KB, small enough to stay
// in L1 across every probe a worker makes. Sizing it to the ID space
// rather than the hub count lets the compiler drop the bounds check
// from every probe, since h>>6 of a uint16 is always below 1024.
// Counting kernels keep one per worker and hold the invariant that it
// is all-zero between uses: Mark a row, probe other rows against it,
// then Clear the same row.
type HubBitmap [1 << 10]uint64

// Mark sets the bits of every hub in hs.
func (b *HubBitmap) Mark(hs []uint16) {
	for _, h := range hs {
		b[h>>6] |= 1 << (h & 63)
	}
}

// Count returns how many hubs of hs are marked: the size of the
// intersection of hs with the marked row. Each element costs one
// L1-resident load and a shift, with no data-dependent branch.
func (b *HubBitmap) Count(hs []uint16) uint64 {
	var n uint64
	for _, h := range hs {
		n += b[h>>6] >> (h & 63) & 1
	}
	return n
}

// Has reports whether hub h is marked.
func (b *HubBitmap) Has(h uint16) bool { return b[h>>6]>>(h&63)&1 != 0 }

// Clear undoes Mark(hs). It zeroes whole words, so it restores the
// all-zero invariant only when hs was the sole marked row — costing
// O(len(hs)), not O(hubs).
func (b *HubBitmap) Clear(hs []uint16) {
	for _, h := range hs {
		b[h>>6] = 0
	}
}

// MergeTraced is Merge with an access callback: onAccess(x, fromA) is
// invoked for every element the merge join reads. The §3.3 fruitless-
// search measurement (Table 1, column 8) uses it to count how many of
// the accessed edges point to hubs.
func MergeTraced(a, b []uint32, onAccess func(x uint32, fromA bool)) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		onAccess(a[i], true)
		onAccess(b[j], false)
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// MergeOps returns the intersection size together with the number of
// element comparisons performed, used as the instruction-count proxy
// of Fig 5b.
func MergeOps(a, b []uint32) (n, ops uint64) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ops++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n, ops
}
