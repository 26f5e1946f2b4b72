package stats

import (
	"math"

	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

// Probe holds the cheap structural statistics the auto-tuner's
// routing policy reads. The budget rule: the probe must stay well
// under the cheapest counting kernel on every graph, so nothing here
// scans all edges — the degree statistics come from an O(|V| +
// max-degree) histogram and the hub coverage from the histogram plus
// one pass over the hub rows only.
type Probe struct {
	Vertices int64
	Edges    int64 // undirected edge count
	// AvgDegree / MaxDegree summarize the degree sequence.
	AvgDegree float64
	MaxDegree int64
	// DegreeGini is the Gini coefficient of the degree sequence: ~0
	// for flat (lattice/Erdős–Rényi) graphs, >0.5 for power-law ones.
	DegreeGini float64
	// HubCount is the effective LOTUS hub count for this graph and
	// HubDegreeMin the smallest degree in that hub set — the same
	// top-degree set (degree desc, ID asc ties) the LOTUS relabeling
	// moves to the front, so the coverage stats describe exactly the
	// structure the lotus kernels would build.
	HubCount     int64
	HubDegreeMin int64
	// HubEdgeCoveragePct is the percentage of edges with at least one
	// hub endpoint: the share of the graph the HE/H2H structures
	// capture. Low coverage means the hub machinery is paid for but
	// most counting happens in NHE anyway.
	HubEdgeCoveragePct float64
	// H2HEdgePct is the percentage of edges with both endpoints hubs;
	// H2HDensityPct that count over C(HubCount, 2) — the occupancy of
	// the H2H bit array, which decides whether the word-parallel
	// phase-1 kernel has anything to popcount.
	H2HEdgePct    float64
	H2HDensityPct float64
}

// StatsMap flattens the probe for the run report's Decision block.
func (p Probe) StatsMap() map[string]float64 {
	round := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	return map[string]float64{
		"vertices":              float64(p.Vertices),
		"edges":                 float64(p.Edges),
		"avg_degree":            round(p.AvgDegree),
		"max_degree":            float64(p.MaxDegree),
		"degree_gini":           round(p.DegreeGini),
		"hub_count":             float64(p.HubCount),
		"hub_degree_min":        float64(p.HubDegreeMin),
		"hub_edge_coverage_pct": round(p.HubEdgeCoveragePct),
		"h2h_edge_pct":          round(p.H2HEdgePct),
		"h2h_density_pct":       round(p.H2HDensityPct),
	}
}

// probeChunks cuts [0, n) into near-equal ranges aligned to 64-vertex
// boundaries (so per-chunk bitset writers never share a word), one
// per pool worker. Per-chunk partial results indexed by chunk and
// merged in chunk order make every float reduction deterministic no
// matter which worker ran which chunk.
func probeChunks(n, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	per := (n/workers + 63) &^ 63
	if per == 0 {
		per = 64
	}
	var out [][2]int
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	if len(out) == 0 {
		out = append(out, [2]int{0, 0})
	}
	return out
}

// ComputeProbe measures g's routing statistics. hubCount has
// core.Options semantics (0 = adaptive default); pool supplies the
// workers and its cancellation stops the probe early (the caller's
// context check discards the result). The output is deterministic for
// a given graph: the hub set breaks degree ties by ascending vertex
// ID, exactly as reorder.DegreeOrder does, and all parallel
// reductions merge per-chunk partials in chunk order.
func ComputeProbe(g *graph.Graph, hubCount int, pool *sched.Pool) Probe {
	if pool == nil {
		pool = sched.NewPool(0)
	}
	n := g.NumVertices()
	m := g.NumEdges()
	p := Probe{Vertices: int64(n), Edges: m}
	if n == 0 {
		return p
	}
	p.AvgDegree = 2 * float64(m) / float64(n)
	chunks := probeChunks(n, pool.Workers())
	nc := len(chunks)

	// Degree histogram, built per chunk with bins sized once from the
	// maximum degree and merged into the last chunk's (the tie quota
	// below reads only the earlier chunks' own): the O(|V| +
	// max-degree) spine of the skew and hub threshold computations.
	maxDeg := g.MaxDegree()
	p.MaxDegree = int64(maxDeg)
	histPer := make([][]int64, nc)
	pool.For(nc, 1, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			if pool.Cancelled() {
				return
			}
			h := make([]int64, maxDeg+1)
			for v := chunks[c][0]; v < chunks[c][1]; v++ {
				h[g.Degree(uint32(v))]++
			}
			histPer[c] = h
		}
	})
	if pool.Cancelled() {
		return p
	}
	hist := histPer[nc-1]
	for _, h := range histPer[:nc-1] {
		for d, c := range h {
			hist[d] += c
		}
	}

	// Gini over the ascending degree sequence, blockwise from the
	// histogram: a block of c vertices with degree d and r vertices
	// before it contributes d*(c*r + c*(c+1)/2) to sum(rank_i * x_i).
	if m > 0 {
		var weighted float64
		var rank int64
		for d := 0; d <= maxDeg; d++ {
			c := hist[d]
			if c == 0 {
				continue
			}
			weighted += float64(d) * (float64(c)*float64(rank) + float64(c)*float64(c+1)/2)
			rank += c
		}
		s := 2 * float64(m) // sum of degrees
		p.DegreeGini = 2*weighted/(float64(n)*s) - float64(n+1)/float64(n)
		if p.DegreeGini < 0 {
			p.DegreeGini = 0
		}
	}

	// Hub set: the top-h degrees, ties broken by ascending ID — the
	// same set reorder puts at the front. The degree threshold, the
	// tie quota and the hub degree sum all come from the histogram;
	// the bitset marks the members for the h2h row pass.
	h := core.Options{HubCount: hubCount}.EffectiveHubCount(n)
	p.HubCount = int64(h)
	cut := maxDeg
	var above, hubDegSum int64 // vertices with degree > cut, their degree total
	for cut > 0 && above+hist[cut] < int64(h) {
		above += hist[cut]
		hubDegSum += hist[cut] * int64(cut)
		cut--
	}
	p.HubDegreeMin = int64(cut)
	quota := int64(h) - above // degree == cut vertices admitted, by ascending ID
	hubDegSum += quota * int64(cut)
	// Parallel quota-exact marking: chunk c may admit degree == cut
	// vertices only after every earlier chunk took its share, and the
	// per-chunk tie counts are already sitting in the per-chunk
	// histograms, so only the prefix sum is new work. Chunk boundaries
	// are 64-aligned, so bitset writers never share a word. Each chunk
	// also collects its hub IDs, so the h2h pass below walks only the
	// hub rows instead of scanning all of [0, n).
	isHub := make([]uint64, (n+63)/64)
	tiesBefore := make([]int64, nc)
	for c := 1; c < nc; c++ {
		tiesBefore[c] = tiesBefore[c-1]
		if h := histPer[c-1]; cut < len(h) {
			tiesBefore[c] += h[cut]
		}
	}
	hubsPer := make([][]uint32, nc)
	pool.For(nc, 1, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			if pool.Cancelled() {
				return
			}
			q := quota - tiesBefore[c]
			var ids []uint32
			for v := chunks[c][0]; v < chunks[c][1]; v++ {
				d := g.Degree(uint32(v))
				if d > cut || (d == cut && q > 0) {
					isHub[v>>6] |= 1 << (v & 63)
					ids = append(ids, uint32(v))
				}
				if d == cut {
					q--
				}
			}
			hubsPer[c] = ids
		}
	})
	hub := func(v uint32) bool { return isHub[v>>6]&(1<<(v&63)) != 0 }

	// Hub-to-hub edges, each counted once (u < v): only the collected
	// hub rows are walked, so the pass is proportional to the hub
	// edges, not |V| or |E|.
	h2hPer := make([]uint64, nc)
	pool.For(nc, 1, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			var local uint64
			for _, v := range hubsPer[c] {
				if pool.Cancelled() {
					return
				}
				for _, u := range g.Neighbors(v) {
					if u >= v {
						break
					}
					if hub(u) {
						local++
					}
				}
			}
			h2hPer[c] = local
		}
	})
	var h2h int64
	for _, x := range h2hPer {
		h2h += int64(x)
	}
	if m > 0 {
		p.HubEdgeCoveragePct = 100 * float64(hubDegSum-h2h) / float64(m)
		p.H2HEdgePct = 100 * float64(h2h) / float64(m)
	}
	if h > 1 {
		p.H2HDensityPct = 100 * 2 * float64(h2h) / (float64(h) * float64(h-1))
	}

	return p
}
