package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
)

func TestDegreeOrder(t *testing.T) {
	// Star: center 0 must get new ID 0; leaves keep ascending order.
	g := gen.Star(6)
	ra := DegreeOrder(g)
	if ra[0] != 0 {
		t.Fatalf("center relabeled to %d, want 0", ra[0])
	}
	if !IsPermutation(ra) {
		t.Fatal("not a permutation")
	}
	// Relabeled graph must have non-increasing degrees by new ID.
	rg := g.Relabel(ra)
	for v := 1; v < rg.NumVertices(); v++ {
		if rg.Degree(uint32(v)) > rg.Degree(uint32(v-1)) {
			t.Fatalf("degree order violated at %d", v)
		}
	}
}

func TestDegreeOrderDeterministicTies(t *testing.T) {
	g := gen.Ring(8) // all degrees equal: order must be original IDs
	ra := DegreeOrder(g)
	for i, x := range ra {
		if int(x) != i {
			t.Fatalf("tie-breaking not by ID: ra[%d] = %d", i, x)
		}
	}
}

func TestLotusFrontBlock(t *testing.T) {
	// Hub-and-spokes: the 8 hubs have highest degree and must land in
	// the front block in degree order; leaves must preserve order.
	g := gen.HubAndSpokes(8, 92, 3, 1)
	ra := Lotus(g, LotusOptions{HubCount: 8, FrontFraction: 0.08})
	if !IsPermutation(ra) {
		t.Fatal("not a permutation")
	}
	// All original hubs (IDs 0..7, the max-degree vertices) must map
	// below 8.
	for h := 0; h < 8; h++ {
		if ra[h] >= 8 {
			t.Fatalf("hub %d mapped to %d, want < 8", h, ra[h])
		}
	}
	// Non-front vertices must preserve relative order.
	prev := -1
	for old := 8; old < g.NumVertices(); old++ {
		if int(ra[old]) < 8 {
			continue // promoted into front block
		}
		if int(ra[old]) <= prev {
			t.Fatalf("non-front order broken at %d: %d <= %d", old, ra[old], prev)
		}
		prev = int(ra[old])
	}
}

func TestLotusFrontSizeRules(t *testing.T) {
	g := gen.ErdosRenyi(1000, 4000, 2)
	// FrontFraction 0.10 with HubCount 16 -> front = 100.
	ra := Lotus(g, LotusOptions{HubCount: 16, FrontFraction: 0.10})
	if !IsPermutation(ra) {
		t.Fatal("not a permutation")
	}
	// HubCount larger than fraction -> front = HubCount.
	ra2 := Lotus(g, LotusOptions{HubCount: 500, FrontFraction: 0.10})
	if !IsPermutation(ra2) {
		t.Fatal("not a permutation")
	}
	// HubCount > |V| must clamp, not panic.
	ra3 := Lotus(g, LotusOptions{HubCount: 5000, FrontFraction: 0.10})
	if !IsPermutation(ra3) {
		t.Fatal("clamped relabel not a permutation")
	}
}

func TestLotusDefaultFraction(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 3)
	ra := Lotus(g, LotusOptions{HubCount: 4})
	if !IsPermutation(ra) {
		t.Fatal("not a permutation with default fraction")
	}
}

func TestLotusHighestDegreeFirst(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	ra := Lotus(g, LotusOptions{HubCount: 64, FrontFraction: 0.10})
	rg := g.Relabel(ra)
	// New vertex 0 must hold the max degree of the graph.
	if rg.Degree(0) != g.MaxDegree() {
		t.Fatalf("new vertex 0 degree %d != max degree %d", rg.Degree(0), g.MaxDegree())
	}
	// Front block must be degree-sorted descending.
	for v := 1; v < 64; v++ {
		if rg.Degree(uint32(v)) > rg.Degree(uint32(v-1)) {
			t.Fatalf("front block unsorted at %d", v)
		}
	}
	// Hubs (front of the new numbering) must dominate degrees: the
	// minimum front-block degree must be >= the maximum tail degree.
	minFront := rg.Degree(0)
	front := 64
	if f := g.NumVertices() / 10; f > front {
		front = f
	}
	for v := 0; v < front; v++ {
		if d := rg.Degree(uint32(v)); d < minFront {
			minFront = d
		}
	}
	for v := front; v < rg.NumVertices(); v++ {
		if rg.Degree(uint32(v)) > minFront {
			t.Fatalf("tail vertex %d degree %d exceeds min front degree %d", v, rg.Degree(uint32(v)), minFront)
		}
	}
}

func TestDegeneracyOrderKnownValues(t *testing.T) {
	if _, d := DegeneracyOrder(gen.Complete(5)); d != 4 {
		t.Fatalf("K5 degeneracy = %d, want 4", d)
	}
	if _, d := DegeneracyOrder(gen.Ring(20)); d != 2 {
		t.Fatalf("ring degeneracy = %d, want 2", d)
	}
	if _, d := DegeneracyOrder(gen.Star(20)); d != 1 {
		t.Fatalf("star degeneracy = %d, want 1", d)
	}
	if _, d := DegeneracyOrder(gen.PlantedTriangles(5, 3)); d != 2 {
		t.Fatalf("planted degeneracy = %d, want 2", d)
	}
	ra, _ := DegeneracyOrder(gen.Complete(5))
	if !IsPermutation(ra) {
		t.Fatal("K5 order not a permutation")
	}
}

func TestDegeneracyOrderBoundsForwardLists(t *testing.T) {
	// The defining property: after relabel+orient, every forward
	// list has length <= degeneracy.
	graphs := []*graph.Graph{
		gen.RMAT(gen.DefaultRMAT(10, 8, 2)),
		gen.BarabasiAlbert(800, 4, 3),
		gen.HubAndSpokes(10, 300, 3, 4),
	}
	for _, g := range graphs {
		ra, d := DegeneracyOrder(g)
		if !IsPermutation(ra) {
			t.Fatal("not a permutation")
		}
		og := g.Relabel(ra).Orient()
		for v := 0; v < og.NumVertices(); v++ {
			if og.Degree(uint32(v)) > d {
				t.Fatalf("forward list of %d has %d > degeneracy %d",
					v, og.Degree(uint32(v)), d)
			}
		}
	}
}

func TestInverse(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		perm := rng.Perm(n)
		ra := make([]uint32, n)
		for i, p := range perm {
			ra[i] = uint32(p)
		}
		inv := Inverse(ra)
		for old := 0; old < n; old++ {
			if inv[ra[old]] != uint32(old) {
				return false
			}
		}
		return IsPermutation(inv)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPermutationRejects(t *testing.T) {
	if IsPermutation([]uint32{0, 0}) {
		t.Fatal("duplicate accepted")
	}
	if IsPermutation([]uint32{0, 2}) {
		t.Fatal("out of range accepted")
	}
	if !IsPermutation([]uint32{}) {
		t.Fatal("empty should be a permutation")
	}
}

func TestRelabelKeepsTriangleStructure(t *testing.T) {
	// Relabeling must not change |E| or the degree multiset, and the
	// relabeled graph must validate. (Triangle invariance is covered
	// end-to-end in the core package tests.)
	g := gen.RMAT(gen.DefaultRMAT(8, 8, 9))
	for name, ra := range map[string][]uint32{
		"degree": DegreeOrder(g),
		"lotus":  Lotus(g, LotusOptions{HubCount: 16}),
	} {
		rg := g.Relabel(ra)
		if rg.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: |E| changed", name)
		}
		if err := rg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
