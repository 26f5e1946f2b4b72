package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"lotustc/internal/intersect"
)

// Streaming counts hub triangles over an edge stream, the §6.2
// extension: "in a streaming context, Lotus stores the H2H bit array
// in the memory and accelerates processing of hub edges that are
// streamed in."
//
// The caller designates the hub set up front (e.g. the top-degree
// vertices of a warm-up prefix). As edges arrive, each new edge
// closes the triangles whose other two edges were already seen, so
// after streaming a whole graph every hub triangle has been counted
// exactly once. Non-hub (NNN) triangles are counted only when
// CountNonHub is set; the point of the extension is that hub
// triangles — 93.4% of all triangles on average (§3.4) — are counted
// from compact, cache-resident state.
type Streaming struct {
	// hubIdx maps vertex ID -> dense hub index, or -1.
	hubIdx []int32
	hubs   int
	// h2h is a square bit matrix over dense hub indices, enabling
	// word-parallel row intersection on hub-hub edge arrival.
	h2h   [][]uint64
	words int
	// hubNbrs[x] lists the dense hub indices adjacent to vertex x
	// (sorted); nonHubNbrs[x] lists the non-hub neighbours of x
	// (sorted). A hub's own slot holds its non-hub row only while the
	// row is sparse; see denseRow.
	hubNbrs    [][]uint32
	nonHubNbrs [][]uint32
	// denseRow[a] is hub a's non-hub row as a bitmap over the vertex
	// universe while the row holds at least denseMin entries (and
	// nonHubNbrs of the hub is then nil), nil otherwise; rowLen[a] is
	// the row's length in either form. From denseMin on the bitmap
	// costs at most twice the row's list, and every hub-row operation
	// becomes a bit test or a probe of the other side's list, so
	// ingest cost follows the short side instead of the hub's degree.
	// The form is a function of the current length alone, so a live
	// counter and a fresh replay of its edge set agree on MemoryBytes.
	denseRow []intersect.VertexBitmap
	rowLen   []int32
	vwords   int // ⌈n/64⌉: the words of a dense row
	denseMin int // ⌈vwords/2⌉
	// hubVertex maps dense hub index -> vertex ID. Built eagerly in
	// NewStreaming: a lazy build would hide an O(n) scan inside the
	// first hub-edge arrival on the counting hot path and write shared
	// state, a data race the moment a counter is shared.
	hubVertex []uint32
	// CountNonHub additionally counts NNN triangles.
	CountNonHub bool

	// Running counters. Ingest is single-writer — AddEdge/RemoveEdge
	// mutate the adjacency structures and must not be called
	// concurrently — but a resident service polls these counters from
	// other goroutines while ingest runs, so they are atomics. A
	// concurrent read sees a monotone, per-counter-consistent
	// snapshot; once ingest quiesces the counts are exact.
	hhh, hhn, hnn, nnn atomic.Uint64
	edges              atomic.Uint64

	// Memory accounting. baseBytes is the fixed construction cost;
	// adjBytes tracks the growing adjacency entries (atomic for the
	// same reason as the counters: a resident service polls
	// MemoryBytes to enforce per-session budgets while ingest runs).
	baseBytes int64
	adjBytes  atomic.Int64
}

// streamAdjEntryBytes is the estimated resident cost of one
// adjacency entry: 4 bytes of payload plus append growth slack.
const streamAdjEntryBytes = 8

// NewStreaming creates a streaming counter over a universe of n
// vertices with the given hub IDs. Every hub ID must be a distinct
// vertex in [0, n); anything else is rejected with an error rather
// than corrupting (or panicking) the counter, since hub sets arrive
// from callers — on the serving path, straight from request bodies.
func NewStreaming(n int, hubIDs []uint32) (*Streaming, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: streaming counter needs a non-negative vertex count, got %d", n)
	}
	s := &Streaming{
		hubIdx:     make([]int32, n),
		hubs:       len(hubIDs),
		hubNbrs:    make([][]uint32, n),
		nonHubNbrs: make([][]uint32, n),
		denseRow:   make([]intersect.VertexBitmap, len(hubIDs)),
		rowLen:     make([]int32, len(hubIDs)),
		vwords:     (n + 63) / 64,
	}
	s.denseMin = (s.vwords + 1) / 2
	for i := range s.hubIdx {
		s.hubIdx[i] = -1
	}
	s.hubVertex = make([]uint32, len(hubIDs))
	for i, h := range hubIDs {
		if int64(h) >= int64(n) {
			return nil, fmt.Errorf("core: hub ID %d out of range for %d vertices", h, n)
		}
		if s.hubIdx[h] >= 0 {
			return nil, fmt.Errorf("core: duplicate hub ID %d", h)
		}
		s.hubIdx[h] = int32(i)
		s.hubVertex[i] = h
	}
	s.words = (len(hubIDs) + 63) / 64
	s.h2h = make([][]uint64, len(hubIDs))
	for i := range s.h2h {
		s.h2h[i] = make([]uint64, s.words)
	}
	// Fixed footprint: hubIdx (4/vertex), the two per-vertex slice
	// headers (24 each), the H2H bit matrix, and per hub the reverse
	// table entry, the dense-row header and the row length.
	s.baseBytes = 4*int64(n) + 48*int64(n) +
		int64(len(hubIDs))*(8*int64(s.words)+24) + int64(len(hubIDs))*(4+24+4)
	return s, nil
}

// MemoryBytes estimates the counter's resident size: the fixed
// construction footprint (vertex tables + H2H bit matrix) plus the
// adjacency accumulated by ingest: streamAdjEntryBytes per list
// entry, and 8·⌈n/64⌉ bytes for each dense hub row. Safe to call
// concurrently with ingest; the serving layer polls it to enforce
// per-session memory budgets.
func (s *Streaming) MemoryBytes() int64 {
	return s.baseBytes + s.adjBytes.Load()
}

// ForEachEdge calls fn once per edge currently in the counter: the
// hub–hub edges by dense hub index pair, then each hub's non-hub
// neighbours in ascending order, then the non-hub–non-hub edges by
// lower endpoint. It reads the adjacency structures directly, so it
// must not run concurrently with AddEdge/RemoveEdge (same
// single-writer contract as ingest). The serving layer uses it to
// snapshot a session and to migrate a session's exact state into a
// bounded-memory estimator when the session outgrows its budget.
func (s *Streaming) ForEachEdge(fn func(u, v uint32)) {
	// Hub–hub edges: the upper triangle of the H2H bit matrix.
	for a := 0; a < s.hubs; a++ {
		av := s.hubVertex[a]
		forEachSetBit(s.h2h[a], a+1, func(b int) { fn(av, s.hubVertex[b]) })
	}
	// Hub–non-hub edges: stored once, in the hub's row.
	for a := 0; a < s.hubs; a++ {
		hv := s.hubVertex[a]
		if d := s.denseRow[a]; d != nil {
			forEachSetBit(d, 0, func(x int) { fn(hv, uint32(x)) })
			continue
		}
		for _, x := range s.nonHubNbrs[hv] {
			fn(hv, x)
		}
	}
	// Non-hub–non-hub edges: stored in both endpoints' lists; emit
	// each once via x < y, skipping hub slots (they hold hub rows,
	// already emitted above).
	for x := range s.nonHubNbrs {
		if s.hubIdx[x] >= 0 {
			continue
		}
		for _, y := range s.nonHubNbrs[x] {
			if uint32(x) < y {
				fn(uint32(x), y)
			}
		}
	}
}

// forEachSetBit calls fn with the index of every set bit of row at or
// past from, in ascending order, one word at a time.
func forEachSetBit(row []uint64, from int, fn func(i int)) {
	for w := from >> 6; w < len(row); w++ {
		word := row[w]
		if w == from>>6 {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		for ; word != 0; word &= word - 1 {
			fn(w<<6 | bits.TrailingZeros64(word))
		}
	}
}

// SnapshotEdges appends the counter's current edge set to dst in the
// deterministic ForEachEdge order and returns it. Replaying the
// returned edges into a fresh counter built with the same universe
// and hub order reproduces every class count exactly — that is the
// serialization contract the serving layer's session snapshots rest
// on. Same single-writer rules as ForEachEdge.
func (s *Streaming) SnapshotEdges(dst [][2]uint32) [][2]uint32 {
	if c := int(s.edges.Load()); cap(dst)-len(dst) < c {
		grown := make([][2]uint32, len(dst), len(dst)+c)
		copy(grown, dst)
		dst = grown
	}
	s.ForEachEdge(func(u, v uint32) {
		dst = append(dst, [2]uint32{u, v})
	})
	return dst
}

// NumVertices returns the size of the vertex universe.
func (s *Streaming) NumVertices() int { return len(s.hubIdx) }

// NumHubs returns the number of designated hubs.
func (s *Streaming) NumHubs() int { return s.hubs }

// Edges returns the number of distinct edges accepted so far. Safe to
// call concurrently with ingest.
func (s *Streaming) Edges() uint64 { return s.edges.Load() }

// HubTriangles returns the running count of triangles containing at
// least one hub. Safe to call concurrently with ingest.
func (s *Streaming) HubTriangles() uint64 {
	return s.hhh.Load() + s.hhn.Load() + s.hnn.Load()
}

// Classes returns the per-class running counts (NNN is zero unless
// CountNonHub is set). Safe to call concurrently with ingest.
func (s *Streaming) Classes() (hhh, hhn, hnn, nnn uint64) {
	return s.hhh.Load(), s.hhn.Load(), s.hnn.Load(), s.nnn.Load()
}

// negU64 is the two's-complement negation used to subtract from the
// atomic running counters.
func negU64(x uint64) uint64 { return ^x + 1 }

// AddEdge feeds one undirected edge into the stream and returns the
// number of hub triangles it closed. Self loops, duplicate edges and
// out-of-range endpoints are ignored.
func (s *Streaming) AddEdge(u, v uint32) uint64 {
	if u == v || int64(u) >= int64(len(s.hubIdx)) || int64(v) >= int64(len(s.hubIdx)) {
		return 0
	}
	hu, hv := s.hubIdx[u], s.hubIdx[v]
	switch {
	case hu >= 0 && hv >= 0:
		return s.addHubHub(uint32(hu), uint32(hv))
	case hu >= 0:
		return s.addHubNonHub(uint32(hu), v)
	case hv >= 0:
		return s.addHubNonHub(uint32(hv), u)
	default:
		return s.addNonHubNonHub(u, v)
	}
}

func (s *Streaming) h2hHas(a, b uint32) bool {
	return s.h2h[a][b>>6]&(1<<(b&63)) != 0
}

func (s *Streaming) h2hSet(a, b uint32) {
	s.h2h[a][b>>6] |= 1 << (b & 63)
	s.h2h[b][a>>6] |= 1 << (a & 63)
}

// h2hCommon counts the hubs adjacent to both a and b (HHH closers)
// by word-parallel row AND.
func (s *Streaming) h2hCommon(a, b uint32) uint64 {
	var n uint64
	ra, rb := s.h2h[a], s.h2h[b]
	for w := 0; w < s.words; w++ {
		n += uint64(bits.OnesCount64(ra[w] & rb[w]))
	}
	return n
}

// hubRowHas reports whether non-hub x is in hub a's row.
func (s *Streaming) hubRowHas(a, x uint32) bool {
	if d := s.denseRow[a]; d != nil {
		return d.Has(x)
	}
	return containsU32(s.nonHubNbrs[s.hubVertex[a]], x)
}

// hubRowCount counts the entries of the sorted non-hub list xs that
// are in hub a's row: one bit test per entry when the row is dense.
func (s *Streaming) hubRowCount(a uint32, xs []uint32) uint64 {
	if d := s.denseRow[a]; d != nil {
		return d.Count(xs)
	}
	return intersectU32(s.nonHubNbrs[s.hubVertex[a]], xs)
}

// hubRowsCommon counts the non-hubs adjacent to both hubs a and b
// (HHN closers): AND+popcount over two dense rows, a probe of the
// list into the bitmap over one, a merge or gallop over two lists.
func (s *Streaming) hubRowsCommon(a, b uint32) uint64 {
	da, db := s.denseRow[a], s.denseRow[b]
	switch {
	case da != nil && db != nil:
		var n uint64
		for w := range da {
			n += uint64(bits.OnesCount64(da[w] & db[w]))
		}
		return n
	case da != nil:
		return da.Count(s.nonHubNbrs[s.hubVertex[b]])
	default:
		return s.hubRowCount(b, s.nonHubNbrs[s.hubVertex[a]])
	}
}

// hubRowBytes is the accounted hub-side cost of a row of n entries.
func (s *Streaming) hubRowBytes(n int32) int64 {
	if n >= int32(s.denseMin) {
		return 8 * int64(s.vwords)
	}
	return streamAdjEntryBytes * int64(n)
}

// hubRowAdd inserts non-hub x into hub a's row, turning the row into
// a bitmap when it reaches denseMin entries, and charges the change
// of both sides to adjBytes.
func (s *Streaming) hubRowAdd(a, x uint32) {
	hv, n := s.hubVertex[a], s.rowLen[a]
	d := s.denseRow[a]
	switch {
	case d != nil:
	case n+1 >= int32(s.denseMin):
		d = intersect.NewVertexBitmap(len(s.hubIdx))
		d.Mark(s.nonHubNbrs[hv])
		s.denseRow[a], s.nonHubNbrs[hv] = d, nil
	default:
		insertU32(&s.nonHubNbrs[hv], x)
	}
	if d != nil {
		d[x>>6] |= 1 << (x & 63)
	}
	s.rowLen[a] = n + 1
	s.adjBytes.Add(streamAdjEntryBytes + s.hubRowBytes(n+1) - s.hubRowBytes(n))
}

// hubRowRemove deletes non-hub x from hub a's row, turning a dense
// row that falls below denseMin entries back into a sorted list.
func (s *Streaming) hubRowRemove(a, x uint32) {
	hv, n := s.hubVertex[a], s.rowLen[a]
	if d := s.denseRow[a]; d != nil {
		d[x>>6] &^= 1 << (x & 63)
		if n-1 < int32(s.denseMin) {
			row := make([]uint32, 0, n)
			forEachSetBit(d, 0, func(y int) { row = append(row, uint32(y)) })
			s.denseRow[a], s.nonHubNbrs[hv] = nil, row
		}
	} else {
		removeU32(&s.nonHubNbrs[hv], x)
	}
	s.rowLen[a] = n - 1
	s.adjBytes.Add(-streamAdjEntryBytes + s.hubRowBytes(n-1) - s.hubRowBytes(n))
}

func (s *Streaming) addHubHub(a, b uint32) uint64 {
	if s.h2hHas(a, b) {
		return 0
	}
	hhh := s.h2hCommon(a, b)
	s.hhh.Add(hhh)
	hhn := s.hubRowsCommon(a, b)
	s.hhn.Add(hhn)
	s.h2hSet(a, b)
	s.edges.Add(1)
	return hhh + hhn
}

// hubVertexSlotInv maps a dense hub index back to its vertex ID via
// the reverse table built in NewStreaming.
func (s *Streaming) hubVertexSlotInv(idx int32) uint32 {
	return s.hubVertex[idx]
}

// hubNonHubClosers counts the triangles an edge between hub h and
// non-hub x closes: hubs h2 adjacent to both (HHN) and non-hubs y
// adjacent to both (HNN), the latter O(d_x) on a dense row.
func (s *Streaming) hubNonHubClosers(h, x uint32) (hhn, hnn uint64) {
	for _, h2 := range s.hubNbrs[x] {
		if s.h2hHas(h, h2) {
			hhn++
		}
	}
	return hhn, s.hubRowCount(h, s.nonHubNbrs[x])
}

func (s *Streaming) addHubNonHub(h, x uint32) uint64 {
	if s.hubRowHas(h, x) {
		return 0
	}
	hhn, hnn := s.hubNonHubClosers(h, x)
	s.hhn.Add(hhn)
	s.hnn.Add(hnn)
	insertU32(&s.hubNbrs[x], h)
	s.hubRowAdd(h, x)
	s.edges.Add(1)
	return hhn + hnn
}

func (s *Streaming) addNonHubNonHub(x, y uint32) uint64 {
	if containsU32(s.nonHubNbrs[x], y) {
		return 0
	}
	// HNN: hubs adjacent to both endpoints.
	closed := intersectU32(s.hubNbrs[x], s.hubNbrs[y])
	s.hnn.Add(closed)
	if s.CountNonHub {
		s.nnn.Add(intersectU32(s.nonHubNbrs[x], s.nonHubNbrs[y]))
	}
	insertU32(&s.nonHubNbrs[x], y)
	insertU32(&s.nonHubNbrs[y], x)
	s.adjBytes.Add(2 * streamAdjEntryBytes)
	s.edges.Add(1)
	return closed
}

// RemoveEdge deletes an undirected edge from the stream and returns
// the number of hub triangles it destroyed. Unknown edges, self
// loops and out-of-range endpoints are ignored. Together with AddEdge
// this makes the counter fully dynamic: any interleaving of
// insertions and deletions leaves the counts equal to those of the
// resulting graph.
func (s *Streaming) RemoveEdge(u, v uint32) uint64 {
	if u == v || int64(u) >= int64(len(s.hubIdx)) || int64(v) >= int64(len(s.hubIdx)) {
		return 0
	}
	hu, hv := s.hubIdx[u], s.hubIdx[v]
	switch {
	case hu >= 0 && hv >= 0:
		return s.removeHubHub(uint32(hu), uint32(hv))
	case hu >= 0:
		return s.removeHubNonHub(uint32(hu), v)
	case hv >= 0:
		return s.removeHubNonHub(uint32(hv), u)
	default:
		return s.removeNonHubNonHub(u, v)
	}
}

func (s *Streaming) h2hClear(a, b uint32) {
	s.h2h[a][b>>6] &^= 1 << (b & 63)
	s.h2h[b][a>>6] &^= 1 << (a & 63)
}

func (s *Streaming) removeHubHub(a, b uint32) uint64 {
	if !s.h2hHas(a, b) {
		return 0
	}
	// The closers are counted via third vertices only, so clearing
	// the edge first does not change them.
	s.h2hClear(a, b)
	hhh := s.h2hCommon(a, b)
	s.hhh.Add(negU64(hhh))
	hhn := s.hubRowsCommon(a, b)
	s.hhn.Add(negU64(hhn))
	s.edges.Add(negU64(1))
	return hhh + hhn
}

func (s *Streaming) removeHubNonHub(h, x uint32) uint64 {
	if !s.hubRowHas(h, x) {
		return 0
	}
	removeU32(&s.hubNbrs[x], h)
	s.hubRowRemove(h, x)
	hhn, hnn := s.hubNonHubClosers(h, x)
	s.hhn.Add(negU64(hhn))
	s.hnn.Add(negU64(hnn))
	s.edges.Add(negU64(1))
	return hhn + hnn
}

func (s *Streaming) removeNonHubNonHub(x, y uint32) uint64 {
	if !containsU32(s.nonHubNbrs[x], y) {
		return 0
	}
	removeU32(&s.nonHubNbrs[x], y)
	removeU32(&s.nonHubNbrs[y], x)
	s.adjBytes.Add(-2 * streamAdjEntryBytes)
	destroyed := intersectU32(s.hubNbrs[x], s.hubNbrs[y])
	s.hnn.Add(negU64(destroyed))
	if s.CountNonHub {
		s.nnn.Add(negU64(intersectU32(s.nonHubNbrs[x], s.nonHubNbrs[y])))
	}
	s.edges.Add(negU64(1))
	return destroyed
}

func removeU32(s *[]uint32, x uint32) {
	i := intersect.LowerBound(*s, x)
	if i < len(*s) && (*s)[i] == x {
		*s = append((*s)[:i], (*s)[i+1:]...)
	}
}

func containsU32(s []uint32, x uint32) bool {
	i := intersect.LowerBound(s, x)
	return i < len(s) && s[i] == x
}

func insertU32(s *[]uint32, x uint32) {
	i := intersect.LowerBound(*s, x)
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = x
}

// intersectU32 counts |a ∩ b| over two sorted lists with the adaptive
// dispatch the cover-edge kernel uses: galloping when one list dwarfs
// the other, merge join otherwise.
func intersectU32(a, b []uint32) uint64 {
	if intersect.UseGalloping(len(a), len(b)) {
		return intersect.Galloping(a, b)
	}
	return intersect.Merge(a, b)
}
