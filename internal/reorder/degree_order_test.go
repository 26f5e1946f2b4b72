package reorder

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
)

// oracleByDegreeDesc is the comparison-sort ranking DegreeOrder
// replaced: vertex IDs by degree descending, ties by ascending ID.
func oracleByDegreeDesc(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	deg := g.Degrees()
	sort.SliceStable(ids, func(i, j int) bool {
		di, dj := deg[ids[i]], deg[ids[j]]
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids
}

func oracleDegreeOrder(g *graph.Graph) []uint32 {
	ids := oracleByDegreeDesc(g)
	ra := make([]uint32, len(ids))
	for newID, oldID := range ids {
		ra[oldID] = uint32(newID)
	}
	return ra
}

// oracleLotus is the comparison-sort Lotus relabeling, front block
// tracked with an inFront array.
func oracleLotus(g *graph.Graph, opt LotusOptions) []uint32 {
	n := g.NumVertices()
	if opt.FrontFraction <= 0 {
		opt.FrontFraction = DefaultFrontFraction
	}
	front := int(opt.FrontFraction * float64(n))
	if opt.HubCount > front {
		front = opt.HubCount
	}
	if front > n {
		front = n
	}
	ids := oracleByDegreeDesc(g)
	ra := make([]uint32, n)
	inFront := make([]bool, n)
	for i := 0; i < front; i++ {
		ra[ids[i]] = uint32(i)
		inFront[ids[i]] = true
	}
	next := uint32(front)
	for old := 0; old < n; old++ {
		if !inFront[old] {
			ra[old] = next
			next++
		}
	}
	return ra
}

func oracleTopDegree(g *graph.Graph, k int) []uint32 {
	ids := oracleByDegreeDesc(g)
	return ids[:min(max(k, 0), len(ids))]
}

// shuffled relabels g by a random permutation, so high-degree vertices
// are scattered over the ID space rather than clustered at the front
// the way the generators emit them.
func shuffled(g *graph.Graph, seed int64) *graph.Graph {
	perm := rand.New(rand.NewSource(seed)).Perm(g.NumVertices())
	ra := make([]uint32, len(perm))
	for i, p := range perm {
		ra[i] = uint32(p)
	}
	return g.Relabel(ra)
}

// checkAgainstOracle compares DegreeOrder, Lotus (under opts) and
// TopDegree (at ks) with the comparison-sort oracle element by element.
func checkAgainstOracle(t *testing.T, g *graph.Graph, opts []LotusOptions, ks []int) {
	t.Helper()
	ra := DegreeOrder(g)
	if !slices.Equal(ra, oracleDegreeOrder(g)) {
		t.Fatalf("DegreeOrder = %v, oracle %v", ra, oracleDegreeOrder(g))
	}
	if !IsPermutation(ra) {
		t.Fatalf("DegreeOrder is not a permutation: %v", ra)
	}
	for _, opt := range opts {
		got, want := Lotus(g, opt), oracleLotus(g, opt)
		if !slices.Equal(got, want) {
			t.Fatalf("Lotus(%+v) = %v, oracle %v", opt, got, want)
		}
		if !IsPermutation(got) {
			t.Fatalf("Lotus(%+v) is not a permutation", opt)
		}
	}
	for _, k := range ks {
		got, want := TopDegree(g, k), oracleTopDegree(g, k)
		if !slices.Equal(got, want) {
			t.Fatalf("TopDegree(%d) = %v, oracle %v", k, got, want)
		}
	}
}

func TestDegreeOrderMatchesComparisonSort(t *testing.T) {
	chungLu := func(n, m int, capDeg float64, seed int64) *graph.Graph {
		return gen.ChungLu(gen.ChungLuParams{N: n, M: m, Gamma: 2.2, MaxDegreeCap: capDeg, Seed: seed})
	}
	graphs := map[string]*graph.Graph{
		"empty":        graph.FromEdges(nil, graph.BuildOptions{}),
		"one-vertex":   graph.FromEdges(nil, graph.BuildOptions{NumVertices: 1}),
		"isolated":     graph.FromEdges(nil, graph.BuildOptions{NumVertices: 37}),
		"star":         gen.Star(50),
		"ring":         gen.Ring(40),
		"complete":     gen.Complete(12),
		"grid":         gen.Grid(9, 11),
		"er":           gen.ErdosRenyi(600, 2400, 1),
		"er-shuffled":  shuffled(gen.ErdosRenyi(600, 2400, 2), 3),
		"rmat":         gen.RMAT(gen.DefaultRMAT(10, 8, 4)),
		"rmat-sparse":  gen.RMAT(gen.DefaultRMAT(11, 2, 5)),
		"chunglu":      chungLu(800, 4000, 0, 6),
		"chunglu-cap":  shuffled(chungLu(800, 4000, 0.05, 7), 8),
		"hubs":         gen.HubAndSpokes(8, 200, 3, 9),
		"rmat-shuffle": shuffled(gen.RMAT(gen.DefaultRMAT(9, 16, 10)), 11),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			n := g.NumVertices()
			opts := []LotusOptions{
				{},
				{HubCount: 1},
				{HubCount: 4, FrontFraction: 0.10},
				{HubCount: n / 64},
				{HubCount: n / 2, FrontFraction: 0.05},
				{HubCount: n + 7},
				{HubCount: 3, FrontFraction: 0.5},
				{HubCount: 3, FrontFraction: 1},
				{HubCount: 0, FrontFraction: 2.5},
			}
			ks := []int{-3, 0, 1, n / 2, n, n + 5}
			checkAgainstOracle(t, g, opts, ks)
		})
	}
}

// FuzzDegreeOrder decodes the input as up to 64 edges over at most 48
// vertices (one byte per endpoint, plus a leading vertex-count byte so
// isolated vertices and the empty graph are reachable) and holds the
// counting-sort ranking to the comparison-sort oracle.
func FuzzDegreeOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5})
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Add([]byte{30, 7, 7, 9, 47, 9, 46, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxV, maxE = 48, 64
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%(maxV+1), data[1:]
		}
		var edges []graph.Edge
		for i := 0; i+1 < len(data) && len(edges) < maxE; i += 2 {
			edges = append(edges, graph.Edge{U: uint32(data[i]) % maxV, V: uint32(data[i+1]) % maxV})
		}
		g := graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
		nv := g.NumVertices()
		opts := []LotusOptions{{}, {HubCount: 1}, {HubCount: nv / 3, FrontFraction: 0.25}, {HubCount: nv + 1}, {FrontFraction: 1}}
		ks := []int{-1, 0, nv / 2, nv, nv + 5}
		checkAgainstOracle(t, g, opts, ks)
	})
}
