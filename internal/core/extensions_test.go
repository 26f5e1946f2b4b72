package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
)

func TestNonHubSubgraph(t *testing.T) {
	// K6 with 2 hubs: the non-hub sub-graph is K4.
	g := gen.Complete(6)
	lg := Preprocess(g, Options{HubCount: 2, Pool: pool})
	sub := lg.NonHubSubgraph()
	if sub.NumVertices() != 4 || sub.NumEdges() != 6 {
		t.Fatalf("sub = V%d E%d, want K4", sub.NumVertices(), sub.NumEdges())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// All hubs: empty sub-graph.
	lgAll := Preprocess(g, Options{HubCount: 6, Pool: pool})
	if s := lgAll.NonHubSubgraph(); s.NumVertices() != 0 {
		t.Fatalf("all-hubs sub-graph has %d vertices", s.NumVertices())
	}
}

// mustStreaming wraps NewStreaming for tests whose hub sets are valid
// by construction.
func mustStreaming(tb testing.TB, n int, hubIDs []uint32) *Streaming {
	tb.Helper()
	s, err := NewStreaming(n, hubIDs)
	if err != nil {
		tb.Fatalf("NewStreaming(%d, %v): %v", n, hubIDs, err)
	}
	return s
}

// refHubTriangles classifies every triangle of g by its hub content,
// independent of LOTUS.
func refHubTriangles(g *graph.Graph, hubSet map[uint32]bool) (hhh, hhn, hnn, nnn uint64) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		nv := g.Neighbors(uint32(v))
		for i := 0; i < len(nv); i++ {
			if nv[i] >= uint32(v) {
				break
			}
			for j := i + 1; j < len(nv); j++ {
				if nv[j] >= uint32(v) {
					break
				}
				if !g.HasEdge(nv[i], nv[j]) {
					continue
				}
				hubs := 0
				for _, x := range []uint32{uint32(v), nv[i], nv[j]} {
					if hubSet[x] {
						hubs++
					}
				}
				switch hubs {
				case 3:
					hhh++
				case 2:
					hhn++
				case 1:
					hnn++
				default:
					nnn++
				}
			}
		}
	}
	return
}

// topKHubs returns the k highest-degree vertex IDs (ties by ID).
func topKHubs(g *graph.Graph, k int) []uint32 {
	n := g.NumVertices()
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	if k > n {
		k = n
	}
	return ids[:k]
}

func TestStreamingMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":      gen.RMAT(gen.DefaultRMAT(9, 8, 8)),
		"hubspokes": gen.HubAndSpokes(8, 200, 3, 9),
		"k16":       gen.Complete(16),
		"er":        gen.ErdosRenyi(256, 1024, 10),
	}
	for name, g := range graphs {
		hubIDs := topKHubs(g, 16)
		hubSet := map[uint32]bool{}
		for _, h := range hubIDs {
			hubSet[h] = true
		}
		wantHHH, wantHHN, wantHNN, wantNNN := refHubTriangles(g, hubSet)

		s := mustStreaming(t, g.NumVertices(), hubIDs)
		s.CountNonHub = true
		edges := g.Edges()
		rng := rand.New(rand.NewSource(42))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		var closedSum uint64
		for _, e := range edges {
			closedSum += s.AddEdge(e.U, e.V)
		}
		hhh, hhn, hnn, nnn := s.Classes()
		if hhh != wantHHH || hhn != wantHHN || hnn != wantHNN || nnn != wantNNN {
			t.Errorf("%s: streaming classes (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				name, hhh, hhn, hnn, nnn, wantHHH, wantHHN, wantHNN, wantNNN)
		}
		if closedSum != s.HubTriangles() {
			t.Errorf("%s: AddEdge returns summed to %d, HubTriangles = %d",
				name, closedSum, s.HubTriangles())
		}
		if s.Edges() != uint64(g.NumEdges()) {
			t.Errorf("%s: accepted %d edges, want %d", name, s.Edges(), g.NumEdges())
		}
	}
}

func TestStreamingIgnoresDuplicatesAndLoops(t *testing.T) {
	s := mustStreaming(t, 10, []uint32{0, 1})
	s.CountNonHub = true
	s.AddEdge(3, 3) // self loop
	if s.Edges() != 0 {
		t.Fatal("self loop accepted")
	}
	s.AddEdge(0, 1)
	s.AddEdge(1, 0) // duplicate hub-hub
	s.AddEdge(0, 5)
	s.AddEdge(5, 0) // duplicate hub-nonhub
	s.AddEdge(5, 6)
	s.AddEdge(6, 5) // duplicate nonhub-nonhub
	if s.Edges() != 3 {
		t.Fatalf("accepted %d edges, want 3", s.Edges())
	}
	// Triangle 0-1-5? edges 0-1, 0-5 present; 1-5 missing -> 0 so far.
	if s.HubTriangles() != 0 {
		t.Fatalf("premature triangles: %d", s.HubTriangles())
	}
	if closed := s.AddEdge(1, 5); closed != 1 {
		t.Fatalf("closing edge returned %d, want 1", closed)
	}
	hhh, hhn, _, _ := s.Classes()
	if hhh != 0 || hhn != 1 {
		t.Fatalf("classes (%d,%d), want (0,1)", hhh, hhn)
	}
}

func TestStreamingOrderInvariance(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		var edges []graph.Edge
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g := graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
		hubIDs := topKHubs(g, 4)
		el := g.Edges()

		run := func(shuffleSeed int64) (uint64, uint64) {
			s := mustStreaming(t, n, hubIDs)
			s.CountNonHub = true
			perm := rand.New(rand.NewSource(shuffleSeed)).Perm(len(el))
			for _, i := range perm {
				s.AddEdge(el[i].U, el[i].V)
			}
			_, _, _, nnn := s.Classes()
			return s.HubTriangles(), nnn
		}
		h1, n1 := run(1)
		h2, n2 := run(99)
		return h1 == h2 && n1 == n2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingRemoveAllReturnsToZero(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 8, 12))
	hubIDs := topKHubs(g, 8)
	s := mustStreaming(t, g.NumVertices(), hubIDs)
	s.CountNonHub = true
	edges := g.Edges()
	for _, e := range edges {
		s.AddEdge(e.U, e.V)
	}
	before := s.HubTriangles()
	if before == 0 {
		t.Skip("no hub triangles on this seed")
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var destroyed uint64
	for _, e := range edges {
		destroyed += s.RemoveEdge(e.U, e.V)
	}
	hhh, hhn, hnn, nnn := s.Classes()
	if hhh != 0 || hhn != 0 || hnn != 0 || nnn != 0 {
		t.Fatalf("residual counts after removing all edges: (%d,%d,%d,%d)", hhh, hhn, hnn, nnn)
	}
	if destroyed != before {
		t.Fatalf("destroyed %d != built %d", destroyed, before)
	}
	if s.Edges() != 0 {
		t.Fatalf("edge count %d after removing all", s.Edges())
	}
}

func TestStreamingDynamicMatchesBatch(t *testing.T) {
	// Random interleaving of inserts and deletes must leave counts
	// equal to a fresh stream of the surviving edge set.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		hubIDs := []uint32{0, 1, 2}
		s := mustStreaming(t, n, hubIDs)
		s.CountNonHub = true
		type edge struct{ u, v uint32 }
		present := map[edge]bool{}
		norm := func(u, v uint32) edge {
			if u > v {
				u, v = v, u
			}
			return edge{u, v}
		}
		for op := 0; op < 300; op++ {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u == v {
				continue
			}
			e := norm(u, v)
			if rng.Intn(3) == 0 {
				s.RemoveEdge(u, v)
				delete(present, e)
			} else {
				s.AddEdge(u, v)
				present[e] = true
			}
		}
		// Replay the surviving set into a fresh counter.
		ref := mustStreaming(t, n, hubIDs)
		ref.CountNonHub = true
		for e := range present {
			ref.AddEdge(e.u, e.v)
		}
		a1, a2, a3, a4 := s.Classes()
		b1, b2, b3, b4 := ref.Classes()
		return a1 == b1 && a2 == b2 && a3 == b3 && a4 == b4 && s.Edges() == ref.Edges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingRemoveUnknownIgnored(t *testing.T) {
	s := mustStreaming(t, 6, []uint32{0})
	if s.RemoveEdge(1, 2) != 0 || s.RemoveEdge(3, 3) != 0 {
		t.Fatal("removing absent/self edge did something")
	}
	s.AddEdge(0, 1)
	s.RemoveEdge(0, 1)
	s.RemoveEdge(0, 1) // double remove
	if s.Edges() != 0 {
		t.Fatalf("edges = %d", s.Edges())
	}
}

func TestStreamingNoHubs(t *testing.T) {
	// Zero hubs: everything is NNN.
	g := gen.Complete(5)
	s := mustStreaming(t, 5, nil)
	s.CountNonHub = true
	for _, e := range g.Edges() {
		s.AddEdge(e.U, e.V)
	}
	_, _, _, nnn := s.Classes()
	if s.HubTriangles() != 0 || nnn != 10 {
		t.Fatalf("no-hub stream: hub=%d nnn=%d, want 0/10", s.HubTriangles(), nnn)
	}
}

// TestStreamingHubVertexEager: the dense-index -> vertex reverse
// table is built in NewStreaming, not lazily on the first hub-edge
// arrival (the lazy build hid an O(n) scan in the hot path and wrote
// shared state on a read-looking call).
func TestStreamingHubVertexEager(t *testing.T) {
	s := mustStreaming(t, 10, []uint32{7, 3, 9})
	if len(s.hubVertex) != 3 {
		t.Fatalf("hubVertex len %d, want 3 (built in NewStreaming)", len(s.hubVertex))
	}
	for i, want := range []uint32{7, 3, 9} {
		if got := s.hubVertexSlotInv(int32(i)); got != want {
			t.Fatalf("hubVertexSlotInv(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestStreamingSnapshotEdgesRoundTrip: replaying SnapshotEdges into a
// fresh counter with the same universe and hub order reproduces every
// class count and the memory accounting — the serialization contract
// session durability rests on.
func TestStreamingSnapshotEdgesRoundTrip(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(gen.DefaultRMAT(9, 8, 8)),
		"er":   gen.ErdosRenyi(256, 1024, 10),
	}
	for name, g := range graphs {
		hubIDs := topKHubs(g, 16)
		s := mustStreaming(t, g.NumVertices(), hubIDs)
		s.CountNonHub = true
		edges := g.Edges()
		rng := rand.New(rand.NewSource(8))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i, e := range edges {
			s.AddEdge(e.U, e.V)
			if i%5 == 0 {
				s.RemoveEdge(e.U, e.V)
			}
		}

		snap := s.SnapshotEdges(nil)
		if uint64(len(snap)) != s.Edges() {
			t.Fatalf("%s: snapshot holds %d edges, counter reports %d", name, len(snap), s.Edges())
		}
		r := mustStreaming(t, g.NumVertices(), hubIDs)
		r.CountNonHub = true
		for _, e := range snap {
			r.AddEdge(e[0], e[1])
		}
		h1, n1, m1, k1 := s.Classes()
		h2, n2, m2, k2 := r.Classes()
		if h1 != h2 || n1 != n2 || m1 != m2 || k1 != k2 {
			t.Fatalf("%s: replay classes (%d,%d,%d,%d) != live (%d,%d,%d,%d)",
				name, h2, n2, m2, k2, h1, n1, m1, k1)
		}
		if r.Edges() != s.Edges() || r.MemoryBytes() != s.MemoryBytes() {
			t.Fatalf("%s: replay edges/mem %d/%d != live %d/%d",
				name, r.Edges(), r.MemoryBytes(), s.Edges(), s.MemoryBytes())
		}
		// A second snapshot of the replayed counter enumerates the same
		// edges in the same order (determinism).
		again := r.SnapshotEdges(nil)
		if len(again) != len(snap) {
			t.Fatalf("%s: second snapshot %d edges, want %d", name, len(again), len(snap))
		}
		for i := range snap {
			if snap[i] != again[i] {
				t.Fatalf("%s: snapshot order not deterministic at %d: %v vs %v", name, i, snap[i], again[i])
			}
		}
	}
}
