package core

import (
	"math/bits"

	"lotustc/internal/sched"
)

// hubWords returns ⌈H/64⌉, the words an H-bit hub bitset spans.
func hubWords(hubCount uint32) int { return (int(hubCount) + 63) / 64 }

// denseRowMin returns the hub-neighbour count at which an HE row is
// dense: 2·⌈H/64⌉. From there on the row's H-bit bitset takes at most
// twice the bytes of its 16-bit list and at most half the operations
// to scan, so the walk sorts such a row through a hub bitmap and HNN
// probes it word-wise. Both use this one rule.
func denseRowMin(hubCount uint32) int { return 2 * hubWords(hubCount) }

// denseRows is the per-count index of dense non-hub HE rows that HNN
// probes word-wise: an "is dense" bit per vertex, the dense rows
// before each of its words (so a lookup costs one popcount), and a
// slab of ⌈H/64⌉ words per dense row in vertex order. Hubs are never
// probed as u, so their rows are left out. Every slice only grows, so
// a CountScratch reused across counts stops allocating it.
type denseRows struct {
	words   int      // ⌈H/64⌉: the length of every slab row
	isDense []uint64 // bit v set: HE row v is dense
	rank    []uint32 // dense rows in isDense words [0, w)
	slab    []uint64
	count   int // dense rows indexed
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build indexes the dense non-hub HE rows of a row partition (see
// countBlocks), keyed by global vertex ID. Both passes run in
// parallel over isDense words and poll cancellation per word; a
// cancelled build leaves the index partial, which is safe because the
// HNN loops poll before every vertex and probe nothing once the pool
// is cancelled. Each slab row is cleared before it is filled.
func (d *denseRows) build(pool *sched.Pool, rows []*LotusShard) {
	hubCount := rows[0].HubCount
	n := rows[0].numVertices
	hub := int(hubCount)
	minLen := denseRowMin(hubCount)
	nw := (n + 63) / 64
	d.words = hubWords(hubCount)
	d.isDense = grow(d.isDense, nw)
	d.rank = grow(d.rank, nw)
	pool.For(nw, 0, func(_, start, end int) {
		c := heCursor{rows: rows}
		for w := start; w < end; w++ {
			if pool.Cancelled() {
				return
			}
			var set uint64
			for v := max(w*64, hub); v < min(w*64+64, n); v++ {
				if len(c.row(uint32(v))) >= minLen {
					set |= 1 << (v & 63)
				}
			}
			d.isDense[w] = set
		}
	})
	d.count = 0
	for w, set := range d.isDense {
		d.rank[w] = uint32(d.count)
		d.count += bits.OnesCount64(set)
	}
	d.slab = grow(d.slab, d.count*d.words)
	pool.For(nw, 0, func(_, start, end int) {
		c := heCursor{rows: rows}
		for w := start; w < end; w++ {
			if pool.Cancelled() {
				return
			}
			i := int(d.rank[w]) * d.words
			for set := d.isDense[w]; set != 0; set &= set - 1 {
				row := d.slab[i : i+d.words]
				clear(row)
				for _, h := range c.row(uint32(w*64 + bits.TrailingZeros64(set))) {
					row[h>>6] |= 1 << (h & 63)
				}
				i += d.words
			}
		}
	})
}

// heCursor reads the HE rows of ascending vertices across a row
// partition, stepping from one row set to the next as it goes.
type heCursor struct {
	rows []*LotusShard
	r    int
}

// row returns v's HE row; v must not be below the previous call's.
func (c *heCursor) row(v uint32) []uint16 {
	for v >= c.rows[c.r].Range.Hi {
		c.r++
	}
	return c.rows[c.r].HENeighbors(v)
}

// row returns u's HE row as a ⌈H/64⌉-word bitset when it is dense,
// nil otherwise.
func (d *denseRows) row(u uint32) []uint64 {
	set := d.isDense[u>>6]
	bit := uint64(1) << (u & 63)
	if set&bit == 0 {
		return nil
	}
	i := (int(d.rank[u>>6]) + bits.OnesCount64(set&(bit-1))) * d.words
	return d.slab[i : i+d.words]
}
