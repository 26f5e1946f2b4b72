package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lotustc/internal/baseline"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
	"lotustc/internal/serve"
)

// tally counts checked operations and the ones that failed: an error,
// a non-2xx response, or a result that disagrees with the reference.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     []string // the first few failure messages, for stderr
}

// check records one operation and reports whether it passed.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if ok {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 10 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
	return false
}

func (t *tally) report(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, msg := range t.first {
		fmt.Fprintln(w, "FAIL:", msg)
	}
}

// graphInput is one graph a workload counts: the graph itself, a spec
// lotus-serve can build the same graph from, and the reference count.
type graphInput struct {
	name string
	g    *graph.Graph
	spec serve.GraphSpec
	ref  uint64
}

// reference is the oracle every count is checked against: the
// forward algorithm's merge kernel, which shares no code with LOTUS,
// cover-edge or the streaming counters.
func (b *bench) reference(g *graph.Graph) uint64 {
	ref := baseline.Forward(g, sched.NewPool(b.nproc), baseline.KernelMerge)
	if b.cfg.corruptReference {
		ref++
	}
	return ref
}

// classesMatch checks a reported class split against the total.
func classesMatch(c *obs.Classes, total uint64) bool {
	return c == nil || c.HHH+c.HHN+c.HNN+c.NNN == total
}

// perVertexTriangles is the reference for /v1/topk: every triangle
// u < v < w is found once, by merging the neighbours of u and v that
// lie above v, and credited to all three corners.
func perVertexTriangles(g *graph.Graph) []uint64 {
	n := g.NumVertices()
	t := make([]uint64, n)
	above := func(list []uint32, x uint32) []uint32 {
		return list[sort.Search(len(list), func(i int) bool { return list[i] > x }):]
	}
	for u := 0; u < n; u++ {
		nu := g.Neighbors(uint32(u))
		for _, v := range above(nu, uint32(u)) {
			a, c := above(nu, v), above(g.Neighbors(v), v)
			for i, j := 0, 0; i < len(a) && j < len(c); {
				switch {
				case a[i] < c[j]:
					i++
				case a[i] > c[j]:
					j++
				default:
					t[u]++
					t[v]++
					t[a[i]]++
					i++
					j++
				}
			}
		}
	}
	return t
}

// topCounts returns the k largest nonzero per-vertex counts, largest
// first: what a correct top-k answer lists, whatever its tie order.
func topCounts(per []uint64, k int) []uint64 {
	var nz []uint64
	for _, c := range per {
		if c > 0 {
			nz = append(nz, c)
		}
	}
	sort.Slice(nz, func(i, j int) bool { return nz[i] > nz[j] })
	if len(nz) > k {
		nz = nz[:k]
	}
	return nz
}

// topHubs returns the k highest-degree vertices (ties by lower ID).
func topHubs(g *graph.Graph, k int) []uint32 {
	ids := make([]uint32, g.NumVertices())
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.SliceStable(ids, func(i, j int) bool { return g.Degree(ids[i]) > g.Degree(ids[j]) })
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}

// streamEdges returns g's edges in a seeded random order.
func streamEdges(g *graph.Graph, seed int64) [][2]uint32 {
	es := g.Edges()
	out := make([][2]uint32, len(es))
	for i, e := range es {
		out[i] = [2]uint32{e.U, e.V}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// chunks splits edges into batches of at most n.
func chunks(edges [][2]uint32, n int) [][][2]uint32 {
	var out [][][2]uint32
	for len(edges) > 0 {
		k := min(n, len(edges))
		out = append(out, edges[:k])
		edges = edges[k:]
	}
	return out
}

// quantile returns the q-quantile of ds by nearest rank (0 when empty).
// ds is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(i, 0)]
}

// median returns the median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
