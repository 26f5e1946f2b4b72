package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// serialFromEdges is FromEdges as it was before the per-row sort went
// parallel: one serial pass sorts each row and compacts it leftwards
// into fresh offsets. FromEdges must match it byte for byte.
func serialFromEdges(edges []Edge, opt BuildOptions) *Graph {
	n := opt.NumVertices
	for _, e := range edges {
		if int(e.U)+1 > n {
			n = int(e.U) + 1
		}
		if int(e.V)+1 > n {
			n = int(e.V) + 1
		}
	}

	// Count both directions per endpoint.
	deg := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			if !opt.KeepSelfLoops {
				continue
			}
			deg[e.U+1]++
			continue
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	offsets := deg
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	nbrs := make([]uint32, offsets[n])
	push := func(v, u uint32) {
		nbrs[fill[v]] = u
		fill[v]++
	}
	for _, e := range edges {
		if e.U == e.V {
			if opt.KeepSelfLoops {
				push(e.U, e.V)
			}
			continue
		}
		push(e.U, e.V)
		push(e.V, e.U)
	}

	// Sort each adjacency list and deduplicate in place.
	outOff := make([]int64, n+1)
	w := int64(0)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		seg := nbrs[lo:hi]
		slices.Sort(seg)
		start := w
		for i, u := range seg {
			if i > 0 && seg[i-1] == u {
				continue
			}
			nbrs[w] = u
			w++
		}
		outOff[v] = start
	}
	outOff[n] = w
	// outOff currently holds start positions; convert to CSX offsets.
	off := make([]int64, n+1)
	copy(off, outOff)
	return &Graph{offsets: off, nbrs: nbrs[:w:w]}
}

func sameCSR(a, b *Graph) bool {
	return reflect.DeepEqual(a.Offsets(), b.Offsets()) &&
		reflect.DeepEqual(a.RawNeighbors(), b.RawNeighbors())
}

func TestFromEdgesMatchesSerialOracle(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		var edges []Edge
		for i := 0; i < rng.Intn(8*n); i++ {
			edges = append(edges, Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		for _, keep := range []bool{false, true} {
			opt := BuildOptions{NumVertices: rng.Intn(n + 1), KeepSelfLoops: keep}
			if !sameCSR(FromEdges(edges, opt), serialFromEdges(edges, opt)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesOracleEmptyAndSingleVertex(t *testing.T) {
	cases := []struct {
		name  string
		edges []Edge
		opt   BuildOptions
	}{
		{"empty", nil, BuildOptions{}},
		{"empty-pinned", nil, BuildOptions{NumVertices: 3}},
		{"self-loop", []Edge{{U: 0, V: 0}}, BuildOptions{}},
		{"self-loop-kept", []Edge{{U: 0, V: 0}, {U: 0, V: 0}}, BuildOptions{KeepSelfLoops: true}},
		{"one-edge", []Edge{{U: 0, V: 1}}, BuildOptions{}},
		{"triangle-dup", []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 1}}, BuildOptions{}},
	}
	for _, c := range cases {
		for _, keep := range []bool{false, true} {
			opt := c.opt
			opt.KeepSelfLoops = opt.KeepSelfLoops || keep
			got, want := FromEdges(c.edges, opt), serialFromEdges(c.edges, opt)
			if !sameCSR(got, want) {
				t.Errorf("%s keep=%v: offsets %v nbrs %v, want %v %v", c.name, opt.KeepSelfLoops,
					got.Offsets(), got.RawNeighbors(), want.Offsets(), want.RawNeighbors())
			}
		}
	}
}

func BenchmarkFromEdges(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 14
	edges := make([]Edge, 8*n)
	for i := range edges {
		edges[i] = Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
	}
	for b.Loop() {
		FromEdges(edges, BuildOptions{NumVertices: n})
	}
}
