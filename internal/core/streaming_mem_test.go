package core

import (
	"slices"
	"sort"
	"testing"
)

// TestStreamingMemoryBytes: the accounting grows with adjacency
// inserts, shrinks back on removes, and never dips below the fixed
// construction footprint.
func TestStreamingMemoryBytes(t *testing.T) {
	s, err := NewStreaming(64, []uint32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	base := s.MemoryBytes()
	if base <= 0 {
		t.Fatalf("base footprint %d, want > 0", base)
	}
	s.AddEdge(0, 1) // hub-hub: bitmap only, no adjacency growth
	if got := s.MemoryBytes(); got != base {
		t.Fatalf("hub-hub edge changed adjacency accounting: %d -> %d", base, got)
	}
	s.AddEdge(0, 10) // hub–non-hub: two adjacency entries
	s.AddEdge(10, 11)
	grown := s.MemoryBytes()
	if grown != base+4*streamAdjEntryBytes {
		t.Fatalf("after two adjacency edges: %d, want %d", grown, base+4*streamAdjEntryBytes)
	}
	s.AddEdge(0, 10) // duplicate: no growth
	if got := s.MemoryBytes(); got != grown {
		t.Fatalf("duplicate edge grew accounting: %d -> %d", grown, got)
	}
	s.RemoveEdge(0, 10)
	s.RemoveEdge(10, 11)
	s.RemoveEdge(0, 1)
	if got := s.MemoryBytes(); got != base {
		t.Fatalf("after removing everything: %d, want base %d", got, base)
	}

	// Dense rows: over 1024 vertices a hub row turns into a 16-word
	// bitmap at 8 entries, charged 128 bytes on the hub side whatever
	// its length, and back into a list below 8.
	d, err := NewStreaming(1024, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	base = d.MemoryBytes()
	for x := uint32(1); x <= 7; x++ {
		d.AddEdge(0, 100*x)
	}
	if got, want := d.MemoryBytes(), base+7*2*streamAdjEntryBytes; got != want || d.denseRow[0] != nil {
		t.Fatalf("7-entry row: %d bytes (dense %v), want %d as a list", got, d.denseRow[0] != nil, want)
	}
	d.AddEdge(0, 800)
	if got, want := d.MemoryBytes(), base+8*streamAdjEntryBytes+8*16; got != want || d.denseRow[0] == nil {
		t.Fatalf("8-entry row: %d bytes (dense %v), want %d as a bitmap", got, d.denseRow[0] != nil, want)
	}
	for x := uint32(1); x <= 12; x++ {
		d.AddEdge(0, 900+x)
	}
	if got, want := d.MemoryBytes(), base+20*streamAdjEntryBytes+8*16; got != want {
		t.Fatalf("20-entry dense row: %d bytes, want %d", got, want)
	}
	d.RemoveEdge(0, 900) // absent: a clear bit, no change
	d.AddEdge(0, 901)    // duplicate: a set bit, no change
	if got, want := d.MemoryBytes(), base+20*streamAdjEntryBytes+8*16; got != want {
		t.Fatalf("absent remove or duplicate add changed accounting: %d, want %d", got, want)
	}
	for x := uint32(1); x <= 12; x++ {
		d.RemoveEdge(0, 900+x)
	}
	d.RemoveEdge(0, 800)
	if got, want := d.MemoryBytes(), base+7*2*streamAdjEntryBytes; got != want || d.denseRow[0] != nil {
		t.Fatalf("back to 7 entries: %d bytes (dense %v), want %d as a list", got, d.denseRow[0] != nil, want)
	}
	if want := []uint32{100, 200, 300, 400, 500, 600, 700}; !slices.Equal(d.nonHubNbrs[0], want) {
		t.Fatalf("row after densify and back: %v, want %v", d.nonHubNbrs[0], want)
	}
}

// TestStreamingForEachEdge: the iterator emits exactly the current
// edge set, each edge once, across all three storage classes.
func TestStreamingForEachEdge(t *testing.T) {
	s, err := NewStreaming(32, []uint32{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]uint32{
		{3, 7},   // hub-hub
		{3, 10},  // hub–non-hub
		{7, 10},  // hub–non-hub, shared non-hub endpoint
		{10, 11}, // non-hub–non-hub
		{11, 12},
	}
	for _, e := range want {
		s.AddEdge(e[0], e[1])
	}
	s.AddEdge(12, 13)
	s.RemoveEdge(12, 13) // removed edges must not be emitted
	var got [][2]uint32
	s.ForEachEdge(func(u, v uint32) {
		if u > v {
			u, v = v, u
		}
		got = append(got, [2]uint32{u, v})
	})
	sortEdges(got)
	sortEdges(want)
	if len(got) != len(want) {
		t.Fatalf("iterator emitted %d edges %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if s.Edges() != uint64(len(want)) {
		t.Fatalf("edge counter %d, want %d", s.Edges(), len(want))
	}
}

func sortEdges(es [][2]uint32) {
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
}
