// Package reorder builds vertex relabeling arrays. Baseline TC
// algorithms use full degree ordering (§2.2, Algorithm 1); LOTUS uses
// its own relabeling (§4.3.1) that moves only the hubs and other
// high-degree vertices to the front while preserving the original
// order — and therefore the original spatial locality — of everything
// else.
//
// A relabeling array ra is indexed by the original vertex ID and holds
// the new ID (a permutation of 0..|V|-1), exactly as
// create_relabeling_array() returns in the paper.
package reorder

import "lotustc/internal/graph"

// DegreeOrder returns the full degree-descending relabeling used by
// the Forward algorithm and the framework baselines: the vertex with
// the highest degree becomes 0, and so on, ties broken by ascending
// original ID. It is one stable counting sort, O(|V| + max degree): a
// degree histogram, an exclusive prefix sum taken from the highest
// degree down, then one ascending-ID scan that hands each vertex the
// next slot of its degree's bucket — the ascending scan is the tie
// break. Every degree ranking in the repository goes through it.
func DegreeOrder(g *graph.Graph) []uint32 {
	off := g.Offsets()
	ra := make([]uint32, g.NumVertices())
	next := make([]uint32, g.MaxDegree()+1)
	for v := range ra {
		next[off[v+1]-off[v]]++
	}
	var slot uint32
	for d := len(next) - 1; d >= 0; d-- {
		slot, next[d] = slot+next[d], slot
	}
	for v := range ra {
		d := off[v+1] - off[v]
		ra[v] = next[d]
		next[d]++
	}
	return ra
}

// TopDegree returns the k highest-degree vertex IDs in DegreeOrder
// order (ties by ascending ID), k clamped to [0, |V|].
func TopDegree(g *graph.Graph, k int) []uint32 {
	k = min(max(k, 0), g.NumVertices())
	top := make([]uint32, k)
	for v, r := range DegreeOrder(g) {
		if int(r) < k {
			top[r] = uint32(v)
		}
	}
	return top
}

// LotusOptions tune the LOTUS relabeling.
type LotusOptions struct {
	// HubCount is the number of hubs (paper: 2^16). It also sets the
	// minimum size of the reordered front block.
	HubCount int
	// FrontFraction is the fraction of highest-degree vertices moved
	// to the front in degree order (paper: 10%, i.e. 0.10). The front
	// block size is max(HubCount, FrontFraction*|V|), capped at |V|.
	FrontFraction float64
}

// DefaultFrontFraction is the paper's 10% front block (§4.3.1).
const DefaultFrontFraction = 0.10

// Lotus returns the LOTUS relabeling array: the front block (hubs plus
// other high-degree vertices, §4.3.1) receives the first consecutive
// IDs in degree-descending order; all remaining vertices keep their
// original relative order, preserving the graph's initial locality.
func Lotus(g *graph.Graph, opt LotusOptions) []uint32 {
	n := g.NumVertices()
	if opt.FrontFraction <= 0 {
		opt.FrontFraction = DefaultFrontFraction
	}
	front := min(max(int(opt.FrontFraction*float64(n)), opt.HubCount, 0), n)
	// Ranks below front keep their degree-order slot; the rest are
	// renumbered front, front+1, ... in ascending original ID.
	ra := DegreeOrder(g)
	next := uint32(front)
	for v, r := range ra {
		if r >= uint32(front) {
			ra[v] = next
			next++
		}
	}
	return ra
}

// DegeneracyOrder returns the relabeling induced by a k-core
// (degeneracy) peeling: vertices are repeatedly removed in order of
// minimum remaining degree, and the i-th removed vertex gets new ID
// n-1-i. A vertex's not-yet-removed neighbours at removal time (at
// most the degeneracy of the graph) are exactly the ones that end up
// with *smaller* new IDs, so after Orient every forward list N^< has
// length <= degeneracy — the ordering behind node-iterator-core [62],
// giving the Forward algorithm its best worst-case intersection
// sizes. Returns the relabeling array and the degeneracy.
func DegeneracyOrder(g *graph.Graph) ([]uint32, int) {
	n := g.NumVertices()
	deg := make([]int32, n)
	maxd := 0
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(uint32(v)))
		if int(deg[v]) > maxd {
			maxd = int(deg[v])
		}
	}
	buckets := make([][]uint32, maxd+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	removed := make([]bool, n)
	ra := make([]uint32, n)
	degeneracy := 0
	next := uint32(0)
	cur := 0
	for processed := 0; processed < n; {
		for cur <= maxd && len(buckets[cur]) == 0 {
			cur++
		}
		if cur > maxd {
			break
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != int32(cur) {
			continue // stale entry
		}
		removed[v] = true
		ra[v] = uint32(n-1) - next
		next++
		processed++
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, u := range g.Neighbors(v) {
			if removed[u] {
				continue
			}
			deg[u]--
			buckets[deg[u]] = append(buckets[deg[u]], u)
			if int(deg[u]) < cur {
				cur = int(deg[u])
			}
		}
	}
	return ra, degeneracy
}

// Inverse returns the inverse permutation (new -> old), useful to map
// results back to original vertex IDs.
func Inverse(ra []uint32) []uint32 {
	inv := make([]uint32, len(ra))
	for old, nw := range ra {
		inv[nw] = uint32(old)
	}
	return inv
}

// IsPermutation verifies that ra is a bijection on 0..len(ra)-1.
func IsPermutation(ra []uint32) bool {
	seen := make([]bool, len(ra))
	for _, x := range ra {
		if int(x) >= len(ra) || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}
