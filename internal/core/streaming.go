package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
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
	// (sorted); nonHubNbrs[x] lists the non-hub neighbours of
	// non-hub x (sorted).
	hubNbrs    [][]int32
	nonHubNbrs [][]uint32
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
		hubNbrs:    make([][]int32, n),
		nonHubNbrs: make([][]uint32, n),
	}
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
	// headers (24 each), the H2H bit matrix and the hub reverse table.
	s.baseBytes = 4*int64(n) + 48*int64(n) +
		int64(len(hubIDs))*(8*int64(s.words)+24) + 4*int64(len(hubIDs))
	return s, nil
}

// MemoryBytes estimates the counter's resident size: the fixed
// construction footprint (vertex tables + H2H bit matrix) plus the
// adjacency entries accumulated by ingest. Safe to call concurrently
// with ingest; the serving layer polls it to enforce per-session
// memory budgets.
func (s *Streaming) MemoryBytes() int64 {
	return s.baseBytes + s.adjBytes.Load()
}

// ForEachEdge calls fn once per edge currently in the counter, in
// unspecified order. It reads the adjacency structures directly, so
// it must not run concurrently with AddEdge/RemoveEdge (same
// single-writer contract as ingest). The serving layer uses it to
// migrate a session's exact state into a bounded-memory estimator
// when the session outgrows its budget.
func (s *Streaming) ForEachEdge(fn func(u, v uint32)) {
	// Hub–hub edges: the upper triangle of the H2H bit matrix.
	for a := 0; a < s.hubs; a++ {
		row := s.h2h[a]
		for b := a + 1; b < s.hubs; b++ {
			if row[b>>6]&(1<<(uint(b)&63)) != 0 {
				fn(s.hubVertex[a], s.hubVertex[b])
			}
		}
	}
	// Hub–non-hub edges: stored once, under the hub's vertex slot.
	for a := 0; a < s.hubs; a++ {
		hv := s.hubVertex[a]
		for _, x := range s.nonHubNbrs[hv] {
			fn(hv, x)
		}
	}
	// Non-hub–non-hub edges: stored in both endpoints' lists; emit
	// each once via x < y, skipping hub slots (their nonHubNbrs hold
	// hub–non-hub edges, already emitted above).
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
		return s.addHubHub(hu, hv)
	case hu >= 0:
		return s.addHubNonHub(hu, v)
	case hv >= 0:
		return s.addHubNonHub(hv, u)
	default:
		return s.addNonHubNonHub(u, v)
	}
}

func (s *Streaming) h2hHas(a, b int32) bool {
	return s.h2h[a][b>>6]&(1<<(uint(b)&63)) != 0
}

func (s *Streaming) h2hSet(a, b int32) {
	s.h2h[a][b>>6] |= 1 << (uint(b) & 63)
	s.h2h[b][a>>6] |= 1 << (uint(a) & 63)
}

func (s *Streaming) addHubHub(a, b int32) uint64 {
	if s.h2hHas(a, b) {
		return 0
	}
	var closed uint64
	// HHH: hubs adjacent to both, via word-parallel row AND.
	ra, rb := s.h2h[a], s.h2h[b]
	for w := 0; w < s.words; w++ {
		closed += uint64(bits.OnesCount64(ra[w] & rb[w]))
	}
	s.hhh.Add(closed)
	// HHN: non-hubs adjacent to both hubs. Hub adjacency of
	// non-hubs is in hubNbrs; intersect the hubs' non-hub neighbour
	// lists, kept in nonHubNbrs under the hub's own vertex slot.
	hhn := intersectSortedU32(s.nonHubNbrs[s.hubVertexSlotInv(a)], s.nonHubNbrs[s.hubVertexSlotInv(b)])
	s.hhn.Add(hhn)
	closed += hhn
	s.h2hSet(a, b)
	s.edges.Add(1)
	return closed
}

// hubVertexSlotInv maps a dense hub index back to its vertex ID via
// the reverse table built in NewStreaming.
func (s *Streaming) hubVertexSlotInv(idx int32) uint32 {
	return s.hubVertex[idx]
}

func (s *Streaming) addHubNonHub(h int32, x uint32) uint64 {
	hv := s.hubVertexSlotInv(h)
	if containsU32(s.nonHubNbrs[hv], x) {
		return 0
	}
	var closed uint64
	// HHN: hubs h2 adjacent to both h and x.
	for _, h2 := range s.hubNbrs[x] {
		if s.h2hHas(h, h2) {
			closed++
		}
	}
	s.hhn.Add(closed)
	// HNN: non-hubs y adjacent to both h and x.
	hnn := intersectSortedU32(s.nonHubNbrs[hv], s.nonHubNbrs[x])
	s.hnn.Add(hnn)
	closed += hnn
	insertI32(&s.hubNbrs[x], h)
	insertU32(&s.nonHubNbrs[hv], x)
	s.adjBytes.Add(2 * streamAdjEntryBytes)
	s.edges.Add(1)
	return closed
}

func (s *Streaming) addNonHubNonHub(x, y uint32) uint64 {
	if containsU32(s.nonHubNbrs[x], y) {
		return 0
	}
	// HNN: hubs adjacent to both endpoints.
	closed := intersectSortedI32(s.hubNbrs[x], s.hubNbrs[y])
	s.hnn.Add(closed)
	if s.CountNonHub {
		s.nnn.Add(intersectSortedU32(s.nonHubNbrs[x], s.nonHubNbrs[y]))
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
		return s.removeHubHub(hu, hv)
	case hu >= 0:
		return s.removeHubNonHub(hu, v)
	case hv >= 0:
		return s.removeHubNonHub(hv, u)
	default:
		return s.removeNonHubNonHub(u, v)
	}
}

func (s *Streaming) h2hClear(a, b int32) {
	s.h2h[a][b>>6] &^= 1 << (uint(b) & 63)
	s.h2h[b][a>>6] &^= 1 << (uint(a) & 63)
}

func (s *Streaming) removeHubHub(a, b int32) uint64 {
	if !s.h2hHas(a, b) {
		return 0
	}
	// Destroy the edge first so the triangle scans below do not see
	// it (they count via third vertices only, so order is actually
	// immaterial — but keep the mirror of addHubHub explicit).
	s.h2hClear(a, b)
	var destroyed uint64
	ra, rb := s.h2h[a], s.h2h[b]
	for w := 0; w < s.words; w++ {
		destroyed += uint64(bits.OnesCount64(ra[w] & rb[w]))
	}
	s.hhh.Add(negU64(destroyed))
	hhn := intersectSortedU32(s.nonHubNbrs[s.hubVertexSlotInv(a)], s.nonHubNbrs[s.hubVertexSlotInv(b)])
	s.hhn.Add(negU64(hhn))
	destroyed += hhn
	s.edges.Add(negU64(1))
	return destroyed
}

func (s *Streaming) removeHubNonHub(h int32, x uint32) uint64 {
	hv := s.hubVertexSlotInv(h)
	if !containsU32(s.nonHubNbrs[hv], x) {
		return 0
	}
	removeI32(&s.hubNbrs[x], h)
	removeU32(&s.nonHubNbrs[hv], x)
	s.adjBytes.Add(-2 * streamAdjEntryBytes)
	var destroyed uint64
	for _, h2 := range s.hubNbrs[x] {
		if s.h2hHas(h, h2) {
			destroyed++
		}
	}
	s.hhn.Add(negU64(destroyed))
	hnn := intersectSortedU32(s.nonHubNbrs[hv], s.nonHubNbrs[x])
	s.hnn.Add(negU64(hnn))
	destroyed += hnn
	s.edges.Add(negU64(1))
	return destroyed
}

func (s *Streaming) removeNonHubNonHub(x, y uint32) uint64 {
	if !containsU32(s.nonHubNbrs[x], y) {
		return 0
	}
	removeU32(&s.nonHubNbrs[x], y)
	removeU32(&s.nonHubNbrs[y], x)
	s.adjBytes.Add(-2 * streamAdjEntryBytes)
	destroyed := intersectSortedI32(s.hubNbrs[x], s.hubNbrs[y])
	s.hnn.Add(negU64(destroyed))
	if s.CountNonHub {
		s.nnn.Add(negU64(intersectSortedU32(s.nonHubNbrs[x], s.nonHubNbrs[y])))
	}
	s.edges.Add(negU64(1))
	return destroyed
}

func removeU32(s *[]uint32, x uint32) {
	i := sort.Search(len(*s), func(i int) bool { return (*s)[i] >= x })
	if i < len(*s) && (*s)[i] == x {
		*s = append((*s)[:i], (*s)[i+1:]...)
	}
}

func removeI32(s *[]int32, x int32) {
	i := sort.Search(len(*s), func(i int) bool { return (*s)[i] >= x })
	if i < len(*s) && (*s)[i] == x {
		*s = append((*s)[:i], (*s)[i+1:]...)
	}
}

func containsU32(s []uint32, x uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

func insertU32(s *[]uint32, x uint32) {
	i := sort.Search(len(*s), func(i int) bool { return (*s)[i] >= x })
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = x
}

func insertI32(s *[]int32, x int32) {
	i := sort.Search(len(*s), func(i int) bool { return (*s)[i] >= x })
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = x
}

func intersectSortedU32(a, b []uint32) uint64 {
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

func intersectSortedI32(a, b []int32) uint64 {
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
