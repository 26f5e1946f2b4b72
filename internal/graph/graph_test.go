package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// paperExample is the 9-vertex example of Figure 2 (hubs 0 and 1).
func paperExample() *Graph {
	return FromEdges([]Edge{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 6},
		{1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 7},
		{2, 3}, {4, 6}, {6, 8},
	}, BuildOptions{})
}

func TestFromEdgesBasic(t *testing.T) {
	g := paperExample()
	if got := g.NumVertices(); got != 9 {
		t.Fatalf("NumVertices = %d, want 9", got)
	}
	if got := g.NumEdges(); got != 13 {
		t.Fatalf("NumEdges = %d, want 13", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantNb := []uint32{1, 2, 3, 4, 6}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, wantNb) {
		t.Fatalf("Neighbors(0) = %v, want %v", got, wantNb)
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}}, BuildOptions{})
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + self-loop removal)", got)
	}
	if g.Degree(2) != 1 {
		t.Fatalf("Degree(2) = %d, want 1", g.Degree(2))
	}
	kept := FromEdges([]Edge{{0, 0}, {0, 1}}, BuildOptions{KeepSelfLoops: true})
	if !kept.HasEdge(0, 0) {
		t.Fatal("KeepSelfLoops dropped the self loop")
	}
}

func TestFromEdgesEmptyAndPinned(t *testing.T) {
	g := FromEdges(nil, BuildOptions{})
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph got V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	g = FromEdges(nil, BuildOptions{NumVertices: 5})
	if g.NumVertices() != 5 {
		t.Fatalf("pinned V = %d, want 5", g.NumVertices())
	}
	for v := uint32(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Fatalf("vertex %d has degree %d in edgeless graph", v, g.Degree(v))
		}
	}
}

func TestOrient(t *testing.T) {
	g := paperExample()
	og := g.Orient()
	if !og.Oriented {
		t.Fatal("Orient result not marked oriented")
	}
	if og.NumEdges() != g.NumEdges() {
		t.Fatalf("oriented |E| = %d, want %d", og.NumEdges(), g.NumEdges())
	}
	if err := og.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Vertex 6 has neighbours {0,1,4,8}; oriented keeps {0,1,4}.
	if got, want := og.Neighbors(6), []uint32{0, 1, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("oriented Neighbors(6) = %v, want %v", got, want)
	}
	if og.Degree(0) != 0 {
		t.Fatalf("vertex 0 should have empty forward list, got %d", og.Degree(0))
	}
}

func TestHasEdge(t *testing.T) {
	g := paperExample()
	cases := []struct {
		v, u uint32
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true}, {8, 6, true},
		{0, 8, false}, {5, 7, false}, {3, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.v, c.u); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.v, c.u, got, c.want)
		}
	}
}

func TestRelabelIdentityAndReverse(t *testing.T) {
	g := paperExample()
	n := g.NumVertices()
	id := make([]uint32, n)
	for i := range id {
		id[i] = uint32(i)
	}
	rg := g.Relabel(id)
	if !reflect.DeepEqual(rg.Offsets(), g.Offsets()) || !reflect.DeepEqual(rg.RawNeighbors(), g.RawNeighbors()) {
		t.Fatal("identity relabel changed the graph")
	}
	rev := make([]uint32, n)
	for i := range rev {
		rev[i] = uint32(n - 1 - i)
	}
	gr := g.Relabel(rev)
	if err := gr.Validate(); err != nil {
		t.Fatalf("Validate after reverse relabel: %v", err)
	}
	// Edge (0,1) becomes (8,7).
	if !gr.HasEdge(8, 7) {
		t.Fatal("reverse relabel lost edge (0,1)->(8,7)")
	}
	if gr.NumEdges() != g.NumEdges() {
		t.Fatalf("relabel changed |E|: %d vs %d", gr.NumEdges(), g.NumEdges())
	}
}

func TestRelabelPreservesDegreeMultiset(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		var edges []Edge
		for i := 0; i < 3*n; i++ {
			edges = append(edges, Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
		}
		g := FromEdges(edges, BuildOptions{NumVertices: n})
		perm := rng.Perm(n)
		ra := make([]uint32, n)
		for i, p := range perm {
			ra[i] = uint32(p)
		}
		rg := g.Relabel(ra)
		want := append([]int32(nil), g.Degrees()...)
		got := append([]int32(nil), rg.Degrees()...)
		sortInt32(want)
		sortInt32(got)
		return reflect.DeepEqual(want, got) && rg.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := paperExample()
	edges := g.Edges()
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("Edges() returned %d, want %d", len(edges), g.NumEdges())
	}
	g2 := FromEdges(edges, BuildOptions{NumVertices: g.NumVertices()})
	if !reflect.DeepEqual(g2.Offsets(), g.Offsets()) || !reflect.DeepEqual(g2.RawNeighbors(), g.RawNeighbors()) {
		t.Fatal("Edges -> FromEdges did not round-trip")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, oriented := range []bool{false, true} {
		g := paperExample()
		if oriented {
			g = g.Orient()
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if g2.Oriented != oriented {
			t.Fatalf("oriented flag lost: got %v", g2.Oriented)
		}
		if !reflect.DeepEqual(g2.Offsets(), g.Offsets()) || !reflect.DeepEqual(g2.RawNeighbors(), g.RawNeighbors()) {
			t.Fatal("binary round trip mismatch")
		}
	}
}

func TestSaveLoadFileErrors(t *testing.T) {
	g := paperExample()
	if err := g.SaveFile("/nonexistent-dir/x.lotg"); err == nil {
		t.Fatal("SaveFile to unwritable path succeeded")
	}
	if _, err := LoadFile("/nonexistent-dir/x.lotg"); err == nil {
		t.Fatal("LoadFile of missing file succeeded")
	}
}

func TestBinaryRejectsTamperedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := paperExample().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Oversized vertex count header (bytes 12..19, little endian).
	huge := append([]byte(nil), data...)
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0xFF
	huge[16] = 0x01 // nv >= 2^32
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized vertex count accepted")
	}
	// Truncated stream.
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Out-of-range neighbour: flip the last neighbour ID high byte.
	oor := append([]byte(nil), data...)
	oor[len(oor)-1] = 0xFF
	if _, err := ReadBinary(bytes.NewReader(oor)); err == nil {
		t.Fatal("out-of-range neighbour accepted")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE0000000000000000000000000000"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

func TestEdgeListTextRoundTrip(t *testing.T) {
	in := "# comment\n0 1\n1 2\n% another\n2 0\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumEdges() != 3 || g.NumVertices() != 3 {
		t.Fatalf("triangle parse got V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	var buf bytes.Buffer
	for _, e := range g.Edges() {
		fmt.Fprintf(&buf, "%d %d\n", e.U, e.V)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("round trip |E| = %d", g2.NumEdges())
	}
}

func TestEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("0\n")); err == nil {
		t.Fatal("expected error for short line")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("a b\n")); err == nil {
		t.Fatal("expected error for non-numeric ID")
	}
}

func TestTopologyBytes(t *testing.T) {
	g := paperExample()
	want := 8*int64(g.NumVertices()+1) + 4*2*g.NumEdges()
	if got := g.TopologyBytes(); got != want {
		t.Fatalf("TopologyBytes = %d, want %d", got, want)
	}
}

func TestMaxAndAverageDegree(t *testing.T) {
	g := paperExample()
	if got := g.MaxDegree(); got != 6 {
		t.Fatalf("MaxDegree = %d, want 6 (vertex 1)", got)
	}
}

func TestGiniOfDegrees(t *testing.T) {
	// A star is maximally skewed; a ring has Gini 0.
	var starEdges []Edge
	for i := uint32(1); i < 64; i++ {
		starEdges = append(starEdges, Edge{0, i})
	}
	star := FromEdges(starEdges, BuildOptions{})
	var ringEdges []Edge
	for i := uint32(0); i < 64; i++ {
		ringEdges = append(ringEdges, Edge{i, (i + 1) % 64})
	}
	ring := FromEdges(ringEdges, BuildOptions{})
	if gs, gr := star.GiniOfDegrees(), ring.GiniOfDegrees(); gs <= gr || gr > 1e-9 {
		t.Fatalf("Gini star=%v ring=%v; want star >> ring = 0", gs, gr)
	}
}

func TestNewPanicsOnMalformed(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nonzero start", func() { New([]int64{1, 2}, []uint32{0, 0}, false) })
	mustPanic("non-monotone", func() { New([]int64{0, 2, 1}, []uint32{0}, false) })
	mustPanic("length mismatch", func() { New([]int64{0, 1}, []uint32{0, 0}, false) })
}
