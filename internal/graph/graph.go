// Package graph provides the CSX (compressed sparse rows/columns) graph
// representation used throughout the LOTUS reproduction, together with
// builders that normalize raw edge lists (deduplication, self-loop
// removal, symmetrization) and utilities for degrees, orientation and
// relabeling.
//
// Following the paper (§5.1.2), a graph is stored with |V|+1 index
// values of 8 bytes each and |E| neighbour IDs of 4 bytes each. Vertex
// IDs are uint32; the implementation therefore supports graphs with up
// to 2^32-1 vertices, which covers every public dataset the paper uses.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lotustc/internal/sched"
)

// Graph is an adjacency structure in CSX format. The neighbour list of
// vertex v is Nbrs[Offsets[v]:Offsets[v+1]], always sorted ascending.
//
// A Graph may represent either a symmetric (undirected) graph, where
// every edge {u,v} appears in both adjacency lists, or an oriented
// "forward" graph, where the list of v holds only neighbours u < v
// (the N^< sets of the paper). Orientation is tracked by the Oriented
// flag so that statistics can interpret |E| correctly.
type Graph struct {
	offsets []int64
	nbrs    []uint32
	// Oriented reports that each undirected edge is stored exactly
	// once, in the adjacency list of its higher-ID endpoint.
	Oriented bool
}

// Edge is one undirected edge between vertices U and V.
type Edge struct {
	U, V uint32
}

// New assembles a Graph from a prebuilt offsets/neighbours pair.
// It validates the CSX invariants and panics on malformed input, since
// a bad topology would corrupt every downstream computation.
func New(offsets []int64, nbrs []uint32, oriented bool) *Graph {
	if len(offsets) == 0 {
		offsets = []int64{0}
	}
	if offsets[0] != 0 {
		panic("graph: offsets must start at 0")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			panic(fmt.Sprintf("graph: offsets not monotone at %d", i))
		}
	}
	if offsets[len(offsets)-1] != int64(len(nbrs)) {
		panic("graph: final offset does not match neighbour count")
	}
	return &Graph{offsets: offsets, nbrs: nbrs, Oriented: oriented}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumDirectedEdges returns the number of stored adjacency slots. For a
// symmetric graph this is 2|E|; for an oriented graph it is |E|.
func (g *Graph) NumDirectedEdges() int64 { return int64(len(g.nbrs)) }

// NumEdges returns the number of undirected edges |E|.
func (g *Graph) NumEdges() int64 {
	if g.Oriented {
		return int64(len(g.nbrs))
	}
	return int64(len(g.nbrs)) / 2
}

// Degree returns the length of v's stored neighbour list.
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's neighbour list (sorted ascending). The returned
// slice aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.nbrs[g.offsets[v]:g.offsets[v+1]]
}

// Offsets exposes the CSX index array (length |V|+1).
func (g *Graph) Offsets() []int64 { return g.offsets }

// RawNeighbors exposes the flat neighbour array.
func (g *Graph) RawNeighbors() []uint32 { return g.nbrs }

// MaxDegree returns the largest stored degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	maxd := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// HasEdge reports whether u appears in v's neighbour list, via binary
// search over the sorted list.
func (g *Graph) HasEdge(v, u uint32) bool {
	nb := g.Neighbors(v)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= u })
	return i < len(nb) && nb[i] == u
}

// Degrees returns the per-vertex degree array.
func (g *Graph) Degrees() []int32 {
	d := make([]int32, g.NumVertices())
	for v := range d {
		d[v] = int32(g.offsets[v+1] - g.offsets[v])
	}
	return d
}

// Edges returns the undirected edge list. For symmetric graphs each
// edge {u,v} is reported once with U <= V; for oriented graphs the
// stored (higher, lower) pairs are reported as (lower, higher).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if g.Oriented || u <= uint32(v) {
				out = append(out, Edge{U: u, V: uint32(v)})
			}
		}
	}
	return out
}

// TopologyBytes returns the memory footprint of the CSX topology
// following the paper's accounting: 8 bytes per index value and 4
// bytes per neighbour ID (Table 7).
func (g *Graph) TopologyBytes() int64 {
	return 8*int64(len(g.offsets)) + 4*int64(len(g.nbrs))
}

// Validate checks structural invariants: sorted neighbour lists,
// in-range IDs, no self loops, and (for symmetric graphs) that every
// edge has its mirror. It is O(|E| log d) and intended for tests.
func (g *Graph) Validate() error {
	n := uint32(g.NumVertices())
	for v := uint32(0); v < n; v++ {
		nb := g.Neighbors(v)
		for i, u := range nb {
			if u >= n {
				return fmt.Errorf("vertex %d: neighbour %d out of range", v, u)
			}
			if u == v {
				return fmt.Errorf("vertex %d: self loop", v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("vertex %d: neighbours unsorted or duplicated at %d", v, i)
			}
			if g.Oriented && u >= v {
				return fmt.Errorf("vertex %d: oriented graph holds neighbour %d >= v", v, u)
			}
			if !g.Oriented && !g.HasEdge(u, v) {
				return fmt.Errorf("edge (%d,%d) missing its mirror", v, u)
			}
		}
	}
	return nil
}

// Orient converts a symmetric graph into the forward orientation used
// by Algorithm 1 and by LOTUS preprocessing: the list of v retains only
// neighbours u < v. The input graph is unchanged.
func (g *Graph) Orient() *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(uint32(v))
		// Neighbour lists are sorted, so the count of u < v is a prefix.
		offsets[v+1] = offsets[v] + int64(countBelow(nb, uint32(v)))
	}
	nbrs := make([]uint32, offsets[n])
	for v := 0; v < n; v++ {
		nb := g.Neighbors(uint32(v))
		k := countBelow(nb, uint32(v))
		copy(nbrs[offsets[v]:offsets[v+1]], nb[:k])
	}
	return &Graph{offsets: offsets, nbrs: nbrs, Oriented: true}
}

// countBelow returns the number of leading entries of the sorted slice
// nb that are strictly below limit.
func countBelow(nb []uint32, limit uint32) int {
	return sort.Search(len(nb), func(i int) bool { return nb[i] >= limit })
}

// Relabel applies the relabeling array ra (indexed by old ID, holding
// the new ID; a permutation of 0..|V|-1) and returns the renamed graph
// with re-sorted neighbour lists. Orientation is not preserved: the
// result is symmetric iff the input was, but an oriented input would
// lose its ordering property, so Relabel requires a symmetric input.
func (g *Graph) Relabel(ra []uint32) *Graph {
	if g.Oriented {
		panic("graph: Relabel requires a symmetric graph")
	}
	n := g.NumVertices()
	if len(ra) != n {
		panic("graph: relabeling array length mismatch")
	}
	offsets := make([]int64, n+1)
	for old := 0; old < n; old++ {
		offsets[ra[old]+1] = int64(g.Degree(uint32(old)))
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	// Rows are independent, so they are renamed and re-sorted in
	// parallel; the sort is most of a relabel.
	nbrs := make([]uint32, offsets[n])
	sched.NewPool(0).For(n, 0, func(_, start, end int) {
		for old := start; old < end; old++ {
			newV := ra[old]
			dst := nbrs[offsets[newV]:offsets[newV+1]]
			for i, u := range g.Neighbors(uint32(old)) {
				dst[i] = ra[u]
			}
			slices.Sort(dst)
		}
	})
	return &Graph{offsets: offsets, nbrs: nbrs}
}

// GiniOfDegrees returns the Gini coefficient of the degree
// distribution, a convenient scalar skewness measure used by tests and
// the harness to separate power-law from uniform generators.
func (g *Graph) GiniOfDegrees() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	d := make([]float64, n)
	var sum float64
	for v := 0; v < n; v++ {
		d[v] = float64(g.Degree(uint32(v)))
		sum += d[v]
	}
	if sum == 0 {
		return 0
	}
	sort.Float64s(d)
	var cum float64
	for i, x := range d {
		cum += float64(i+1) * x
	}
	gini := (2*cum)/(float64(n)*sum) - (float64(n)+1)/float64(n)
	return math.Max(0, gini)
}
