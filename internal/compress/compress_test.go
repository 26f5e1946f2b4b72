package compress

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

var pool = sched.NewPool(2)

func TestRoundTripSmall(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 5}, {U: 1, V: 5}, {U: 2, V: 3},
	}, graph.BuildOptions{NumVertices: 6})
	c := Encode(g)
	g2, err := c.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g2.Offsets(), g.Offsets()) || !reflect.DeepEqual(g2.RawNeighbors(), g.RawNeighbors()) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		var edges []graph.Edge
		for i := 0; i < rng.Intn(5*n); i++ {
			edges = append(edges, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g := graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
		if rng.Intn(2) == 0 {
			g = g.Orient()
		}
		c := Encode(g)
		g2, err := c.Decode()
		if err != nil {
			return false
		}
		return g2.Oriented == g.Oriented &&
			reflect.DeepEqual(g2.Offsets(), g.Offsets()) &&
			reflect.DeepEqual(g2.RawNeighbors(), g.RawNeighbors())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIterMatchesNeighbors(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 1))
	c := Encode(g)
	for v := 0; v < g.NumVertices(); v++ {
		it := c.Iter(uint32(v))
		for _, want := range g.Neighbors(uint32(v)) {
			got, ok := it.Next()
			if !ok || got != want {
				t.Fatalf("vertex %d: iter %d/%v, want %d", v, got, ok, want)
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("vertex %d: iterator overruns", v)
		}
	}
}

func TestDegree(t *testing.T) {
	g := gen.Star(10)
	c := Encode(g)
	if c.Degree(0) != 9 {
		t.Fatalf("center degree = %d", c.Degree(0))
	}
	if c.Degree(5) != 1 {
		t.Fatalf("leaf degree = %d", c.Degree(5))
	}
}

// TestDecodeRoundTripCountsWithLotus counts the triangles of each
// graph after an Encode/Decode round trip with LOTUS: totals must match
// brute force on the original graph.
func TestDecodeRoundTripCountsWithLotus(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat": gen.RMAT(gen.DefaultRMAT(9, 8, 2)),
		"k16":  gen.Complete(16),
		"ring": gen.Ring(30),
	} {
		want := baseline.BruteForce(g)
		dg, err := Encode(g).Decode()
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		lg, err := core.TryPreprocess(dg, core.Options{Pool: pool})
		if err != nil {
			t.Fatalf("%s: preprocess: %v", name, err)
		}
		if got := lg.Count(pool).Total; got != want {
			t.Errorf("%s: LOTUS count after the round trip = %d, want %d", name, got, want)
		}
	}
}

func TestCompressionWins(t *testing.T) {
	// Gap encoding must shrink a locality-friendly graph (ring: all
	// gaps tiny) well below the 4-byte/edge CSX baseline.
	ring := gen.Ring(10000)
	s := CompareSizes(ring)
	if s.Ratio >= 0.8 {
		t.Fatalf("ring compression ratio %.2f, want < 0.8", s.Ratio)
	}
	// And stay sane (within 1.25x even on unfriendly inputs).
	er := gen.ErdosRenyi(4096, 32768, 1)
	if s2 := CompareSizes(er); s2.Ratio > 1.25 {
		t.Fatalf("ER compression ratio %.2f unexpectedly high", s2.Ratio)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	g := gen.Complete(5)
	c := Encode(g)
	// Flip bytes until Decode errors at least once (deterministic
	// sweep; some flips keep the stream valid-but-different, which
	// Decode must still either reject or produce in-range output).
	sawError := false
	for i := range c.data {
		orig := c.data[i]
		c.data[i] = 0xFF
		if _, err := c.Decode(); err != nil {
			sawError = true
		}
		c.data[i] = orig
	}
	if !sawError {
		t.Fatal("no corruption detected across full byte sweep")
	}
	if _, err := c.Decode(); err != nil {
		t.Fatalf("restored stream fails: %v", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	c := Encode(graph.FromEdges(nil, graph.BuildOptions{NumVertices: 3}))
	if c.SizeBytes() != 8*4 {
		t.Fatalf("empty graph size = %d", c.SizeBytes())
	}
	g, err := c.Decode()
	if err != nil || g.NumEdges() != 0 {
		t.Fatal("empty decode failed")
	}
}

func TestCompressedVsLotusSizes(t *testing.T) {
	// Sanity: on a skewed oriented graph both compression and the
	// LOTUS 16-bit HE trick save space over plain CSX; they are
	// complementary, not contradictory.
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 3))
	og := g.Orient()
	s := CompareSizes(og)
	if s.CompressedBytes >= s.CSXBytes {
		t.Fatalf("compression did not shrink oriented RMAT: %d >= %d", s.CompressedBytes, s.CSXBytes)
	}
}
