package core

import (
	"math/rand"
	"slices"
	"testing"

	"lotustc/internal/graph"
)

// refSnapshot lists s's edges in the ForEachEdge order the slow way:
// one H2H bit test per hub pair (a, b > a), one row test per hub and
// vertex, then the non-hub lists.
func refSnapshot(s *Streaming) [][2]uint32 {
	var out [][2]uint32
	for a := uint32(0); a < uint32(s.hubs); a++ {
		for b := a + 1; b < uint32(s.hubs); b++ {
			if s.h2hHas(a, b) {
				out = append(out, [2]uint32{s.hubVertex[a], s.hubVertex[b]})
			}
		}
	}
	for a := uint32(0); a < uint32(s.hubs); a++ {
		for x := range s.hubIdx {
			if s.hubIdx[x] < 0 && s.hubRowHas(a, uint32(x)) {
				out = append(out, [2]uint32{s.hubVertex[a], uint32(x)})
			}
		}
	}
	for x, row := range s.nonHubNbrs {
		if s.hubIdx[x] >= 0 {
			continue
		}
		for _, y := range row {
			if uint32(x) < y {
				out = append(out, [2]uint32{uint32(x), y})
			}
		}
	}
	return out
}

// TestStreamingForEachEdgeOrder: the word-wise H2H and dense-row scans
// emit exactly the bit-by-bit order, on 140 hubs (three H2H words per
// row, so the a+1 start crosses word boundaries) with dense and list
// hub rows mixed.
func TestStreamingForEachEdgeOrder(t *testing.T) {
	const n, hubCount = 2000, 140
	rng := rand.New(rand.NewSource(23))
	perm := rng.Perm(n)
	hubIDs := make([]uint32, hubCount)
	for i := range hubIDs {
		hubIDs[i] = uint32(perm[i])
	}
	s := mustStreaming(t, n, hubIDs)
	for i := 0; i < 6000; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		switch {
		case i < 2500: // ~18 per hub row, around the 16-entry threshold
			u = hubIDs[rng.Intn(hubCount)]
		case i < 4500:
			u, v = hubIDs[rng.Intn(hubCount)], hubIDs[rng.Intn(hubCount)]
		}
		s.AddEdge(u, v)
		if i%7 == 0 {
			s.RemoveEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
	}
	dense := 0
	for _, d := range s.denseRow {
		if d != nil {
			dense++
		}
	}
	if dense == 0 || dense == hubCount {
		t.Fatalf("%d of %d hub rows dense, want a mix", dense, hubCount)
	}
	got, want := s.SnapshotEdges(nil), refSnapshot(s)
	if uint64(len(want)) != s.Edges() {
		t.Fatalf("reference holds %d edges, counter reports %d", len(want), s.Edges())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("SnapshotEdges order differs from the bit-by-bit reference (%d vs %d edges)", len(got), len(want))
	}
}

// TestStreamingDenseRowsModel drives random add/remove batches over
// 2,048 vertices and 32 hubs, alternating growing and shrinking
// phases so hub rows cross the 16-entry dense threshold both ways.
// After every batch the counter must match the brute-force class
// split of the model's edge set, and a fresh replay of that set must
// agree on MemoryBytes and on the SnapshotEdges order, which lists
// each hub's non-hub neighbours in ascending order.
func TestStreamingDenseRowsModel(t *testing.T) {
	const n, hubCount, poolSize = 2048, 32, 192
	rng := rand.New(rand.NewSource(31))
	perm := rng.Perm(n)
	hubIDs := make([]uint32, hubCount)
	hubSet := map[uint32]bool{}
	for i := range hubIDs {
		hubIDs[i] = uint32(perm[i])
		hubSet[hubIDs[i]] = true
	}
	// Non-hub endpoints come from a small pool spread over the
	// universe, so triangles form and dense rows span many words.
	nonHubs := make([]uint32, poolSize)
	for i := range nonHubs {
		nonHubs[i] = uint32(perm[hubCount+i])
	}
	s := mustStreaming(t, n, hubIDs)
	s.CountNonHub = true

	type edge [2]uint32
	var present []edge
	pos := map[edge]int{}
	norm := func(u, v uint32) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	drop := func(i int) {
		e, last := present[i], len(present)-1
		present[i] = present[last]
		pos[present[i]] = i
		present = present[:last]
		delete(pos, e)
	}
	randomEdge := func() (uint32, uint32) {
		// Hubs 0-7 take most hub–non-hub edges, so their rows grow
		// past the threshold while the rest stay lists.
		switch r := rng.Intn(10); {
		case r < 4:
			return hubIDs[rng.Intn(8)], nonHubs[rng.Intn(poolSize)]
		case r < 6:
			return hubIDs[rng.Intn(hubCount)], nonHubs[rng.Intn(poolSize)]
		case r < 7:
			return hubIDs[rng.Intn(hubCount)], hubIDs[rng.Intn(hubCount)]
		default:
			return nonHubs[rng.Intn(poolSize)], nonHubs[rng.Intn(poolSize)]
		}
	}

	var toDense, toList int
	for batch := 0; batch < 40; batch++ {
		addShare := 9 // of 10 ops, while growing
		if batch/5%2 == 1 {
			addShare = 1
		}
		wasDense := make([]bool, hubCount)
		for a, d := range s.denseRow {
			wasDense[a] = d != nil
		}
		for op := 0; op < 200; op++ {
			if rng.Intn(10) < addShare || len(present) == 0 {
				u, v := randomEdge()
				s.AddEdge(u, v)
				e := norm(u, v)
				if _, ok := pos[e]; u != v && !ok {
					pos[e] = len(present)
					present = append(present, e)
				}
				continue
			}
			i := rng.Intn(len(present))
			e := present[i]
			if rng.Intn(2) == 0 {
				s.RemoveEdge(e[0], e[1])
			} else {
				s.RemoveEdge(e[1], e[0])
			}
			drop(i)
		}
		for a, d := range s.denseRow {
			switch {
			case d != nil && !wasDense[a]:
				toDense++
			case d == nil && wasDense[a]:
				toList++
			}
		}

		edges := make([]graph.Edge, len(present))
		for i, e := range present {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		g := graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
		hhh, hhn, hnn, nnn := s.Classes()
		wantHHH, wantHHN, wantHNN, wantNNN := refHubTriangles(g, hubSet)
		if hhh != wantHHH || hhn != wantHHN || hnn != wantHNN || nnn != wantNNN {
			t.Fatalf("batch %d: classes %d/%d/%d/%d, want %d/%d/%d/%d", batch,
				hhh, hhn, hnn, nnn, wantHHH, wantHHN, wantHNN, wantNNN)
		}
		if s.Edges() != uint64(len(present)) {
			t.Fatalf("batch %d: %d edges, model holds %d", batch, s.Edges(), len(present))
		}

		r := mustStreaming(t, n, hubIDs)
		r.CountNonHub = true
		for _, e := range g.Edges() {
			r.AddEdge(e.U, e.V)
		}
		if s.MemoryBytes() != r.MemoryBytes() {
			t.Fatalf("batch %d: live MemoryBytes %d, fresh replay %d", batch, s.MemoryBytes(), r.MemoryBytes())
		}
		snap := s.SnapshotEdges(nil)
		if !slices.Equal(snap, r.SnapshotEdges(nil)) {
			t.Fatalf("batch %d: live SnapshotEdges differs from a fresh replay's", batch)
		}
		last := map[uint32]int64{}
		for _, e := range snap {
			if !hubSet[e[0]] || hubSet[e[1]] {
				continue
			}
			prev, seen := last[e[0]]
			if seen && int64(e[1]) <= prev {
				t.Fatalf("batch %d: hub %d emits non-hub %d after %d", batch, e[0], e[1], prev)
			}
			last[e[0]] = int64(e[1])
		}
	}
	if toDense == 0 || toList == 0 {
		t.Fatalf("rows turned dense %d times and back %d times; the model must cross both ways", toDense, toList)
	}
}
