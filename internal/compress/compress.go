// Package compress implements gap-compressed adjacency lists in the
// spirit of the WebGraph framework [18] that the paper's LWA datasets
// ship in, and quantifies the §3.2 observation that drives LOTUS's
// 16-bit HE encoding: neighbour IDs are dominated by a small hub set,
// so fixed 32-bit IDs waste cache capacity.
//
// The format stores each sorted neighbour list as a varint first-ID
// followed by varint gaps. Because LOTUS relabeling concentrates hubs
// at small IDs and preserves the original ordering elsewhere, gaps
// stay small and the encoding is tight. The package provides:
//
//   - Encode/Decode of whole graphs (CompressedGraph), which back the
//     serving layer's compressed cache tier, and
//   - allocation-free iteration (Iter) over one compressed list.
package compress

import (
	"encoding/binary"
	"fmt"

	"lotustc/internal/graph"
)

// CompressedGraph is a CSX graph whose neighbour lists are varint
// gap-encoded.
type CompressedGraph struct {
	offsets []int64 // byte offsets into data, len |V|+1
	data    []byte
	n       int
	m       int64 // total neighbour entries across all lists
	// Oriented mirrors graph.Graph.Oriented.
	Oriented bool
}

// Encode compresses g. Lists must be sorted ascending (guaranteed by
// the graph builders).
func Encode(g *graph.Graph) *CompressedGraph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	// First pass: sizes.
	var total int64
	var scratch [binary.MaxVarintLen64]byte
	for v := 0; v < n; v++ {
		offsets[v] = total
		prev := int64(-1)
		for _, u := range g.Neighbors(uint32(v)) {
			var gap uint64
			if prev < 0 {
				gap = uint64(u)
			} else {
				gap = uint64(int64(u) - prev - 1)
			}
			total += int64(binary.PutUvarint(scratch[:], gap))
			prev = int64(u)
		}
	}
	offsets[n] = total
	data := make([]byte, total)
	for v := 0; v < n; v++ {
		w := offsets[v]
		prev := int64(-1)
		for _, u := range g.Neighbors(uint32(v)) {
			var gap uint64
			if prev < 0 {
				gap = uint64(u)
			} else {
				gap = uint64(int64(u) - prev - 1)
			}
			w += int64(binary.PutUvarint(data[w:], gap))
			prev = int64(u)
		}
	}
	return &CompressedGraph{offsets: offsets, data: data, n: n, m: g.NumDirectedEdges(), Oriented: g.Oriented}
}

// NumVertices returns |V|.
func (c *CompressedGraph) NumVertices() int { return c.n }

// SizeBytes returns the compressed topology footprint: the byte
// stream plus the 8-byte offset array.
func (c *CompressedGraph) SizeBytes() int64 {
	return int64(len(c.data)) + 8*int64(len(c.offsets))
}

// Degree decodes nothing: it is not stored, so Degree walks the list.
// Prefer Iter when the IDs are needed anyway.
func (c *CompressedGraph) Degree(v uint32) int {
	it := c.Iter(v)
	d := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		d++
	}
	return d
}

// Iter returns an iterator over v's neighbour list.
func (c *CompressedGraph) Iter(v uint32) Iter {
	return Iter{data: c.data[c.offsets[v]:c.offsets[v+1]], prev: -1}
}

// Iter decodes one gap-encoded neighbour list.
type Iter struct {
	data []byte
	pos  int
	prev int64
}

// Next returns the next neighbour ID; ok is false at the end.
func (it *Iter) Next() (uint32, bool) {
	if it.pos >= len(it.data) {
		return 0, false
	}
	gap, k := binary.Uvarint(it.data[it.pos:])
	if k <= 0 {
		// Corrupt stream; surface as exhausted rather than panic —
		// Decode validates integrity for untrusted inputs.
		it.pos = len(it.data)
		return 0, false
	}
	it.pos += k
	if it.prev < 0 {
		it.prev = int64(gap)
	} else {
		it.prev += int64(gap) + 1
	}
	return uint32(it.prev), true
}

// Decode reconstructs the plain CSX graph and validates the stream.
func (c *CompressedGraph) Decode() (*graph.Graph, error) {
	return c.DecodeInto(new(Arena))
}

// Arena holds the reusable decode slabs DecodeInto fills: the CSX
// offset and neighbour arrays. A resident cache recycles arenas
// through a capped sync.Pool so decompress-on-demand reuses slabs
// instead of allocating fresh ones per rehydration. The decoded
// graph aliases the arena, so an arena must only be recycled once no
// live graph references it.
type Arena struct {
	Offsets []int64
	Nbrs    []uint32
}

// SizeBytes returns the slab capacity footprint of the arena.
func (a *Arena) SizeBytes() int64 {
	return 8*int64(cap(a.Offsets)) + 4*int64(cap(a.Nbrs))
}

// DecodeInto reconstructs the plain CSX graph into a's slabs, growing
// them only when capacity falls short, and validates the stream. The
// returned graph aliases the arena's storage: the caller owns the
// lifetime coupling between the two.
func (c *CompressedGraph) DecodeInto(a *Arena) (*graph.Graph, error) {
	if cap(a.Offsets) < c.n+1 {
		a.Offsets = make([]int64, c.n+1)
	}
	// a.Nbrs must come out non-nil even for an edgeless graph so a
	// decoded graph is indistinguishable from the built original.
	if a.Nbrs == nil || int64(cap(a.Nbrs)) < c.m {
		a.Nbrs = make([]uint32, 0, c.m)
	}
	offsets := a.Offsets[:c.n+1]
	nbrs := a.Nbrs[:0]
	for v := 0; v < c.n; v++ {
		offsets[v] = int64(len(nbrs))
		it := c.Iter(uint32(v))
		prev := int64(-1)
		for {
			u, ok := it.Next()
			if !ok {
				break
			}
			if int64(u) <= prev {
				return nil, fmt.Errorf("compress: vertex %d: non-increasing ID %d", v, u)
			}
			if int(u) >= c.n {
				return nil, fmt.Errorf("compress: vertex %d: ID %d out of range", v, u)
			}
			prev = int64(u)
			nbrs = append(nbrs, u)
		}
		if it.pos != len(it.data) {
			return nil, fmt.Errorf("compress: vertex %d: trailing bytes", v)
		}
	}
	offsets[c.n] = int64(len(nbrs))
	a.Offsets, a.Nbrs = offsets, nbrs
	return graph.New(offsets, nbrs, c.Oriented), nil
}

// Sizes reports the fixed-width CSX footprint next to the compressed
// one for a graph, the §3.2 compactness comparison.
type Sizes struct {
	CSXBytes        int64
	CompressedBytes int64
	// Ratio is compressed/CSX.
	Ratio float64
}

// CompareSizes encodes g and reports both footprints.
func CompareSizes(g *graph.Graph) Sizes {
	c := Encode(g)
	s := Sizes{CSXBytes: g.TopologyBytes(), CompressedBytes: c.SizeBytes()}
	if s.CSXBytes > 0 {
		s.Ratio = float64(s.CompressedBytes) / float64(s.CSXBytes)
	}
	return s
}
