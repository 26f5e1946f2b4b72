// Package gen produces deterministic synthetic graphs that stand in
// for the paper's real-world datasets (DESIGN.md, substitution table).
//
// Two families matter for LOTUS:
//
//   - Skewed (power-law) graphs — R-MAT/Kronecker and Chung–Lu — where
//     a small hub set covers most edges and the hub sub-graph is
//     dense. These are the social-network / web-graph analogs on which
//     LOTUS is designed to win.
//   - Flat graphs — Erdős–Rényi and capped-degree Chung–Lu — which
//     reproduce the paper's §5.5 "less power-law" regime (Friendster).
//
// All generators are seeded and reproducible: the same parameters and
// seed always produce the same graph.
package gen

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"lotustc/internal/graph"
)

// RMATParams configure the recursive-matrix (Kronecker) generator.
// The defaults follow the Graph500 convention (a=0.57, b=c=0.19,
// d=0.05), which produces a heavy-tailed degree distribution similar
// to the Twitter-family datasets of the paper.
type RMATParams struct {
	Scale      uint    // |V| = 2^Scale
	EdgeFactor int     // |E| ~= EdgeFactor * |V| before dedup
	A, B, C    float64 // quadrant probabilities; D = 1-A-B-C
	Seed       int64
	// NoiseEach perturbs the quadrant probabilities per level
	// (Graph500-style smoothing) to avoid exact self-similarity.
	Noise float64
}

// DefaultRMAT returns Graph500-style parameters at the given scale.
func DefaultRMAT(scale uint, edgeFactor int, seed int64) RMATParams {
	return RMATParams{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed, Noise: 0.05}
}

// RMAT generates a symmetric simple graph with 2^Scale vertices by the
// R-MAT recursive quadrant process.
//
// Every edge consumes a fixed number of draws (4 per level with noise,
// 1 without), so edge i owns draws [i*per, (i+1)*per) of the seeded
// stream. The calling goroutine fills blocks of draws from that one
// stream in order while up to GOMAXPROCS workers turn each block into
// the edges at its fixed indices: the edge list, and so the graph, is
// the one a single draw-at-a-time loop would produce.
func RMAT(p RMATParams) *graph.Graph {
	if p.A == 0 && p.B == 0 && p.C == 0 {
		p.A, p.B, p.C = 0.57, 0.19, 0.19
	}
	n := 1 << p.Scale
	edges := make([]graph.Edge, p.EdgeFactor*n)
	per := int(p.Scale)
	if p.Noise > 0 {
		per *= 4
	}
	if per > 0 {
		rmatEdges(edges, rand.New(rand.NewSource(p.Seed)), per, p)
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
}

// rmatBlockDraws is the size of one draw buffer (32 KiB), and
// rmatBuffers how many circulate per call: at most 128 KiB of draws
// are in flight whatever the worker count.
const (
	rmatBlockDraws = 4096
	rmatBuffers    = 4
)

var rmatDrawPool = sync.Pool{New: func() any { return new([rmatBlockDraws]float64) }}

type rmatBlock struct {
	buf        *[rmatBlockDraws]float64
	start, end int // the block holds the draws of edges [start, end)
}

// rmatEdges fills edges from rng, per draws an edge.
func rmatEdges(edges []graph.Edge, rng *rand.Rand, per int, p RMATParams) {
	blockEdges := max(1, rmatBlockDraws/per)
	free := make(chan *[rmatBlockDraws]float64, rmatBuffers)
	for range rmatBuffers {
		free <- rmatDrawPool.Get().(*[rmatBlockDraws]float64)
	}
	// At most rmatBuffers blocks exist, so sends on full never block.
	full := make(chan rmatBlock, rmatBuffers)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), rmatBuffers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for blk := range full {
				d := blk.buf[:]
				for i := blk.start; i < blk.end; i++ {
					edges[i].U, edges[i].V = rmatEdge(d[:per], p)
					d = d[per:]
				}
				free <- blk.buf
			}
		}()
	}
	for start := 0; start < len(edges); start += blockEdges {
		end := min(start+blockEdges, len(edges))
		buf := <-free
		for i := range buf[:(end-start)*per] {
			buf[i] = rng.Float64()
		}
		full <- rmatBlock{buf, start, end}
	}
	close(full)
	wg.Wait()
	for range rmatBuffers {
		rmatDrawPool.Put(<-free)
	}
}

// rmatEdge descends Scale levels consuming d in stream order: with
// noise, three perturbation draws and then the quadrant draw per level.
func rmatEdge(d []float64, p RMATParams) (uint32, uint32) {
	var u, v uint32
	a, b, c := p.A, p.B, p.C
	for lvl := uint(0); lvl < p.Scale; lvl++ {
		aa, bb, cc := a, b, c
		if p.Noise > 0 {
			aa *= 1 + p.Noise*(d[0]*2-1)
			bb *= 1 + p.Noise*(d[1]*2-1)
			cc *= 1 + p.Noise*(d[2]*2-1)
			sum := aa + bb + cc + (1 - a - b - c)
			aa, bb, cc = aa/sum, bb/sum, cc/sum
			d = d[3:]
		}
		// The first of r < aa, r < aa+bb, r < aa+bb+cc that holds picks
		// quadrant (0,0), (0,1) or (1,0); none picks (1,1). Evaluated
		// without branches: the quadrant draw is unpredictable.
		r := d[0]
		d = d[1:]
		inA, inAB, inABC := b2u(r < aa), b2u(r < aa+bb), b2u(r < aa+bb+cc)
		u = u<<1 | (1^inA)&(1^inAB)
		v = v<<1 | (1^inA)&(inAB|(1^inABC))
	}
	return u, v
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ChungLuParams configure the Chung–Lu expected-degree generator with
// a Zipf-like weight sequence w_i = wMax * (i+1)^(-1/(gamma-1)),
// giving a power-law degree distribution with exponent gamma.
type ChungLuParams struct {
	N     int     // number of vertices
	M     int     // target number of edge samples before dedup
	Gamma float64 // power-law exponent (2 < gamma < 3 for real graphs)
	// MaxDegreeCap truncates the weight sequence, flattening the
	// distribution; use it to model the §5.5 "low skewness, highest
	// degree 5K" Friendster regime. Zero means uncapped.
	MaxDegreeCap float64
	Seed         int64
}

// ChungLu samples M edges proportionally to w_u*w_v and returns the
// deduplicated simple graph. Sampling uses the standard alias-free
// inverse-CDF over the weight prefix sums: each endpoint is the
// smallest i with cdf[i+1] >= x for one uniform x in [0, total), two
// draws an edge, U then V.
//
// A guide table makes the lookup O(1) expected: guide[b] is the answer
// at x = b·total/N, the start for a draw f (x = f·total) in bucket
// b = ⌊f·N⌋. From there a walk down while cdf[i] >= x and then up
// while cdf[i+1] < x lands exactly on that smallest i. cdf is
// non-decreasing, so the walks absorb any rounding in the bucket
// arithmetic and the result is the binary search's; the N buckets hold
// N prefix sums between them, so a walk is one step on average.
func ChungLu(p ChungLuParams) *graph.Graph {
	if p.Gamma <= 1 {
		p.Gamma = 2.3
	}
	rng := rand.New(rand.NewSource(p.Seed))
	w := make([]float64, p.N)
	exp := 1 / (p.Gamma - 1)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -exp)
		if p.MaxDegreeCap > 0 && w[i] > p.MaxDegreeCap {
			w[i] = p.MaxDegreeCap
		}
	}
	// Prefix sums for inverse-CDF sampling.
	cdf := make([]float64, p.N+1)
	for i, x := range w {
		cdf[i+1] = cdf[i] + x
	}
	total := cdf[p.N]
	// With N == 0 every sample is vertex 0, the zero Edge, whatever
	// the draws.
	edges := make([]graph.Edge, p.M)
	if p.N > 0 {
		guide := make([]int32, p.N+1)
		var at int32
		for b := range guide {
			x := float64(b) * total / float64(p.N)
			for int(at) < p.N-1 && cdf[at+1] < x {
				at++
			}
			guide[b] = at
		}
		sample := func() uint32 {
			f := rng.Float64()
			x := f * total
			i := guide[int(f*float64(p.N))]
			for i > 0 && cdf[i] >= x {
				i--
			}
			for cdf[i+1] < x {
				i++
			}
			return uint32(i)
		}
		for i := range edges {
			edges[i].U = sample()
			edges[i].V = sample()
		}
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: p.N})
}

// BarabasiAlbert grows a preferential-attachment graph: starting
// from a small seed clique, each new vertex attaches to m existing
// vertices chosen proportionally to their degree. The result is the
// classic scale-free model (gamma ≈ 3) with organically emerging
// hubs — a structurally different power-law source than R-MAT's
// recursive quadrants, useful for robustness checks.
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	rng := rand.New(rand.NewSource(seed))
	// targets holds one entry per edge endpoint, so uniform sampling
	// from it is degree-proportional sampling.
	var targets []uint32
	var edges []graph.Edge
	// Seed: (m+1)-clique.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
			targets = append(targets, uint32(u), uint32(v))
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := map[uint32]bool{}
		for len(chosen) < m {
			u := targets[rng.Intn(len(targets))]
			chosen[u] = true
		}
		for u := range chosen {
			edges = append(edges, graph.Edge{U: u, V: uint32(v)})
			targets = append(targets, u, uint32(v))
		}
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
}

// ErdosRenyi generates a G(n, m)-style graph by sampling m uniform
// edges (with dedup), the maximally "non-power-law" baseline.
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
}

// SBMParams configure the stochastic block model (planted-partition)
// generator: k communities of n/k vertices, with edge probability
// pIn inside a community and pOut across communities. High pIn/pOut
// ratios produce the community structure that gives real social
// networks their high triangle density.
type SBMParams struct {
	N, K      int
	PIn, POut float64
	Seed      int64
}

// SBM samples a stochastic block model graph. Edge sampling is
// O(expected edges) via geometric skipping.
func SBM(p SBMParams) *graph.Graph {
	rng := rand.New(rand.NewSource(p.Seed))
	var edges []graph.Edge
	community := func(v int) int { return v * p.K / p.N }
	// Geometric skipping over the upper triangle: iterate potential
	// pairs (u,v), u<v, skipping ahead by Geom(prob) each time.
	sample := func(prob float64, emit func(idx int64), total int64) {
		if prob <= 0 {
			return
		}
		if prob >= 1 {
			for i := int64(0); i < total; i++ {
				emit(i)
			}
			return
		}
		idx := int64(-1)
		for {
			// Skip ~ Geometric(prob).
			skip := int64(math.Floor(math.Log(1-rng.Float64())/math.Log(1-prob))) + 1
			idx += skip
			if idx >= total {
				return
			}
			emit(idx)
		}
	}
	// Enumerate pairs as a flat index over the upper triangle.
	total := int64(p.N) * int64(p.N-1) / 2
	pairOf := func(idx int64) (int, int) {
		// Row-major upper triangle: find u with binary search.
		lo, hi := 0, p.N-1
		for lo < hi {
			mid := (lo + hi) / 2
			// Pairs before row mid+1: sum_{r<=mid} (N-1-r)
			before := int64(mid+1)*int64(p.N-1) - int64(mid+1)*int64(mid)/2
			if before <= idx {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		u := lo
		before := int64(u)*int64(p.N-1) - int64(u)*int64(u-1)/2
		v := u + 1 + int(idx-before)
		return u, v
	}
	// Two passes: one at pOut over all pairs (then filter to
	// cross-community), one at the boosted rate for in-community
	// pairs. For simplicity and exactness, sample at pOut globally
	// and add the in-community excess (pIn-pOut)/(1-pOut) on a second
	// pass; duplicates collapse in the builder.
	sample(p.POut, func(idx int64) {
		u, v := pairOf(idx)
		edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
	}, total)
	if p.PIn > p.POut {
		excess := (p.PIn - p.POut) / (1 - p.POut)
		sample(excess, func(idx int64) {
			u, v := pairOf(idx)
			if community(u) == community(v) {
				edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
			}
		}, total)
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: p.N})
}

// Complete returns K_n; it contains C(n,3) triangles and is the
// worst-case dense input for the hub phase.
func Complete(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
		}
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
}

// Star returns a star with center 0 and n-1 leaves: zero triangles
// with an extreme hub.
func Star(n int) *graph.Graph {
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(v)})
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
}

// Ring returns the n-cycle: zero triangles for n > 3, one for n == 3.
func Ring(n int) *graph.Graph {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: uint32(v), V: uint32((v + 1) % n)})
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
}

// Path returns the n-vertex path graph: zero triangles.
func Path(n int) *graph.Graph {
	var edges []graph.Edge
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: uint32(v), V: uint32(v + 1)})
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
}

// Grid returns the rows x cols 2-D lattice: zero triangles, good
// spatial locality — the opposite structural extreme from R-MAT.
func Grid(rows, cols int) *graph.Graph { return lattice(rows, cols, false) }

// TriGrid returns the rows x cols triangulated lattice: the 2-D grid
// plus one diagonal per unit square, so every square holds exactly two
// triangles — (rows-1)*(cols-1)*2 in total. Degrees are flat (interior
// vertices have degree 6) and the diameter is huge, the road-network
// regime where hub-based counting has nothing to grab and the
// cover-edge kernel shines.
func TriGrid(rows, cols int) *graph.Graph { return lattice(rows, cols, true) }

// lattice builds Grid, plus TriGrid's diagonals when diagonals is set,
// into an edge list sized exactly.
func lattice(rows, cols int, diagonals bool) *graph.Graph {
	m := 0
	if rows > 0 && cols > 0 {
		m = rows*(cols-1) + (rows-1)*cols
		if diagonals {
			m += (rows - 1) * (cols - 1)
		}
	}
	edges := make([]graph.Edge, 0, m)
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
			if diagonals && c+1 < cols && r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c+1)})
			}
		}
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: rows * cols})
}

// CompleteBipartite returns K_{a,b}, a triangle-free graph with two
// fully-connected hub-like sides; every neighbour-list intersection in
// it is fruitless, stressing the §3.3 pruning analysis.
func CompleteBipartite(a, b int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(a + v)})
		}
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: a + b})
}

// PlantedTriangles builds a sparse graph of t disjoint triangles plus
// isolated padding vertices, for exact-count tests: it has exactly t
// triangles.
func PlantedTriangles(t, padding int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < t; i++ {
		a, b, c := uint32(3*i), uint32(3*i+1), uint32(3*i+2)
		edges = append(edges, graph.Edge{U: a, V: b}, graph.Edge{U: b, V: c}, graph.Edge{U: a, V: c})
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: 3*t + padding})
}

// HubAndSpokes builds the paper's motivating structure explicitly:
// nHubs mutually connected hubs (a clique) plus nLeaves non-hubs, each
// attached to `attach` distinct hubs. Every leaf contributes
// C(attach,2) HHN triangles; the clique contributes C(nHubs,3) HHH
// triangles; there are no HNN or NNN triangles.
func HubAndSpokes(nHubs, nLeaves, attach int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := 0; u < nHubs; u++ {
		for v := u + 1; v < nHubs; v++ {
			edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
		}
	}
	for l := 0; l < nLeaves; l++ {
		leaf := uint32(nHubs + l)
		perm := rng.Perm(nHubs)
		for i := 0; i < attach && i < nHubs; i++ {
			edges = append(edges, graph.Edge{U: leaf, V: uint32(perm[i])})
		}
	}
	return graph.FromEdges(edges, graph.BuildOptions{NumVertices: nHubs + nLeaves})
}
