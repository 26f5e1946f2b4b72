// Package stats computes the topological characteristics the paper
// reports: Table 1 (hub edge split, hub triangles, relative density,
// fruitless searches, at 1% hubs), Table 7 (topology sizes CSX vs
// LOTUS), Table 8 (H2H density / zero cachelines) and Fig 7/8 (LOTUS
// triangle and edge splits).
package stats

import (
	"math"

	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/intersect"
	"lotustc/internal/reorder"
)

// Table1 holds one dataset row of the paper's Table 1.
type Table1 struct {
	// Edge split, percent of |E|.
	HubToHubPct    float64
	HubToNonHubPct float64
	TotalHubPct    float64 // HubToHubPct + HubToNonHubPct
	NonHubPct      float64
	// Triangle split.
	TotalTriangles uint64
	HubTriangles   uint64
	HubTrianglePct float64
	// Relative density of the hub sub-graph (§3.4).
	RelativeDensity float64
	// Fruitless searches (§3.3): of the edges accessed by merge-join
	// intersections while processing non-hub vertices with no hub
	// edges, the percentage pointing at hubs.
	FruitlessSearchPct float64
}

// ComputeTable1 computes the Table 1 row for g with the top
// hubFraction (paper: 0.01) of vertices by degree selected as hubs.
func ComputeTable1(g *graph.Graph, hubFraction float64) Table1 {
	n := g.NumVertices()
	var t Table1
	if n == 0 || g.NumEdges() == 0 {
		return t
	}
	hubCount := int(hubFraction * float64(n))
	if hubCount < 1 {
		hubCount = 1
	}
	// Degree ordering puts hubs at IDs < hubCount, matching the §3.1
	// setting in which the measurements are defined.
	ra := reorder.DegreeOrder(g)
	rg := g.Relabel(ra)
	og := rg.Orient()
	isHub := func(v uint32) bool { return v < uint32(hubCount) }

	// Edge split.
	var h2h, h2n, n2n int64
	for v := 0; v < n; v++ {
		for _, u := range og.Neighbors(uint32(v)) {
			switch {
			case isHub(uint32(v)) && isHub(u):
				h2h++
			case isHub(uint32(v)) || isHub(u):
				h2n++
			default:
				n2n++
			}
		}
	}
	e := float64(og.NumEdges())
	t.HubToHubPct = 100 * float64(h2h) / e
	t.HubToNonHubPct = 100 * float64(h2n) / e
	t.TotalHubPct = t.HubToHubPct + t.HubToNonHubPct
	t.NonHubPct = 100 * float64(n2n) / e

	// Triangle split: enumerate each triangle once on the oriented
	// graph and classify by hub membership of its corners.
	var total, hub uint64
	for v := 0; v < n; v++ {
		nv := og.Neighbors(uint32(v))
		for _, u := range nv {
			nu := og.Neighbors(u)
			i, j := 0, 0
			for i < len(nv) && j < len(nu) {
				switch {
				case nv[i] < nu[j]:
					i++
				case nv[i] > nu[j]:
					j++
				default:
					total++
					if isHub(uint32(v)) || isHub(u) || isHub(nv[i]) {
						hub++
					}
					i++
					j++
				}
			}
		}
	}
	t.TotalTriangles = total
	t.HubTriangles = hub
	if total > 0 {
		t.HubTrianglePct = 100 * float64(hub) / float64(total)
	}

	// Relative density RD = (|E'|/|V'|^2) / (|E|/|V|^2) for the hub
	// sub-graph (§3.4).
	if h2h > 0 {
		t.RelativeDensity = (float64(h2h) / (float64(hubCount) * float64(hubCount))) /
			(e / (float64(n) * float64(n)))
	}

	// Fruitless searches (§3.3): consider non-hub vertices v whose
	// neighbour list contains no hub (N_v ∩ Hubs = {}); during their
	// merge-join intersections, measure the fraction of accessed
	// edges that point at hubs.
	var accessed, hubAccessed uint64
	for v := hubCount; v < n; v++ {
		nv := og.Neighbors(uint32(v))
		// Oriented lists are sorted: a hub neighbour would be first.
		if len(nv) > 0 && isHub(nv[0]) {
			continue
		}
		// The full (symmetric) neighbour list must also be hub-free.
		full := rg.Neighbors(uint32(v))
		if len(full) > 0 && isHub(full[0]) {
			continue
		}
		for _, u := range nv {
			intersect.MergeTraced(nv, og.Neighbors(u), func(x uint32, _ bool) {
				accessed++
				if isHub(x) {
					hubAccessed++
				}
			})
		}
	}
	if accessed > 0 {
		t.FruitlessSearchPct = 100 * float64(hubAccessed) / float64(accessed)
	}
	return t
}

// Table7 holds one dataset row of the paper's Table 7: topology data
// sizes under the Forward algorithm's CSX layout and under LOTUS.
type Table7 struct {
	// CSXEdgesBytes is the neighbour array alone, symmetric edges
	// removed: 4 bytes x |E|.
	CSXEdgesBytes int64
	// CSXBytes adds the 8-byte index array: 8(|V|+1) + 4|E|.
	CSXBytes int64
	// LotusBytes is the LOTUS structure: two index arrays, the H2H
	// bit array, 2-byte HE edges and 4-byte NHE edges.
	LotusBytes int64
	// GrowthPct is 100*(Lotus-CSX)/CSX; negative when LOTUS shrinks
	// the topology (Table 7 averages -4.1%).
	GrowthPct float64
}

// ComputeTable7 sizes the topology of g under both layouts.
func ComputeTable7(g *graph.Graph, lg *core.LotusGraph) Table7 {
	var t Table7
	t.CSXEdgesBytes = 4 * g.NumEdges()
	t.CSXBytes = 8*int64(g.NumVertices()+1) + t.CSXEdgesBytes
	t.LotusBytes = lg.TopologyBytes()
	if t.CSXBytes > 0 {
		t.GrowthPct = 100 * float64(t.LotusBytes-t.CSXBytes) / float64(t.CSXBytes)
	}
	return t
}

// Table8 holds one row of the paper's Table 8.
type Table8 struct {
	DensityPct       float64
	ZeroCachelinePct float64
}

// ComputeTable8 reports the H2H bit array characteristics of a flat
// (P = 1) LotusGraph.
func ComputeTable8(lg *core.LotusGraph) Table8 {
	h2h := lg.Flat().H2H
	return Table8{
		DensityPct:       100 * h2h.Density(),
		ZeroCachelinePct: 100 * h2h.ZeroCachelineFraction(),
	}
}

// EdgeSplit reports Fig 8: the percentage of edges LOTUS stores in HE
// vs NHE.
type EdgeSplit struct {
	HEPct, NHEPct float64
	HEEdges       int64
	NHEEdges      int64
}

// ComputeEdgeSplit computes the Fig 8 split for a preprocessed flat
// (P = 1) graph.
func ComputeEdgeSplit(lg *core.LotusGraph) EdgeSplit {
	flat := lg.Flat()
	he, nhe := flat.HE.NumEdges(), flat.NHE.NumEdges()
	s := EdgeSplit{HEEdges: he, NHEEdges: nhe}
	if tot := he + nhe; tot > 0 {
		s.HEPct = 100 * float64(he) / float64(tot)
		s.NHEPct = 100 * float64(nhe) / float64(tot)
	}
	return s
}

// TriangleSplit reports Fig 7: hub vs non-hub triangle percentages of
// a LOTUS count result.
type TriangleSplit struct {
	HubPct, NonHubPct float64
}

// ComputeTriangleSplit derives Fig 7 from a count result.
func ComputeTriangleSplit(res *core.Result) TriangleSplit {
	var s TriangleSplit
	if res.Total > 0 {
		s.HubPct = 100 * float64(res.HubTriangles()) / float64(res.Total)
		s.NonHubPct = 100 * float64(res.NNN) / float64(res.Total)
	}
	return s
}

// DegreeAssortativity returns the Pearson correlation between the
// degrees of edge endpoints (Newman's r): positive when hubs attach
// to hubs, negative when hubs attach to leaves. Real social networks
// are assortative, web graphs disassortative — one of the structural
// differences behind the Table 8 contrast between the two families.
// Returns 0 for degree-regular graphs (undefined correlation).
func DegreeAssortativity(g *graph.Graph) float64 {
	var sx, sy, sxy, sxx, syy, m float64
	for v := 0; v < g.NumVertices(); v++ {
		dv := float64(g.Degree(uint32(v)))
		for _, u := range g.Neighbors(uint32(v)) {
			if u >= uint32(v) {
				break // each undirected edge once, both orders summed below
			}
			du := float64(g.Degree(u))
			// Count the edge in both orientations to symmetrize.
			sx += dv + du
			sy += du + dv
			sxy += 2 * dv * du
			sxx += dv*dv + du*du
			syy += du*du + dv*dv
			m += 2
		}
	}
	if m == 0 {
		return 0
	}
	cov := sxy/m - (sx/m)*(sy/m)
	varx := sxx/m - (sx/m)*(sx/m)
	vary := syy/m - (sy/m)*(sy/m)
	if varx <= 0 || vary <= 0 {
		return 0
	}
	return cov / math.Sqrt(varx*vary)
}

// DegreeHistogram returns the log2-bucketed degree distribution,
// used by the harness to show the skew of each generated dataset.
func DegreeHistogram(g *graph.Graph) []int64 {
	var hist []int64
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(uint32(v))
		b := 0
		for d > 0 {
			d >>= 1
			b++
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}
