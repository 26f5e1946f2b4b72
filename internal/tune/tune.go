// Package tune is the structural auto-tuner: it probes cheap stats
// about a graph (degree skew, assortativity, hub edge coverage, H2H
// density — see stats.ComputeProbe) and routes the count to the
// registry algorithm and kernel knobs the structure favors. The
// policy is a transparent, ordered decision list — every branch has a
// one-line reason recorded in the run report's Decision block, and
// every threshold is a named constant below — so a mis-routed graph
// is diagnosable from the report alone and the BENCH_*.json
// auto-vs-fixed sweep can validate each branch empirically.
//
// The policy routes between two regimes:
//
//   - Hub-covered or dense graphs: when a small top-degree set covers
//     a large share of the edges (power-law social/web analogs), or
//     the graph is flat but dense enough that oriented intersections
//     dominate, LOTUS's bespoke structures win — the paper's design
//     point.
//   - Sparse weak-hub graphs (meshes, road networks, low-degree
//     preferential attachment): no hub set covers anything and rows
//     are short, so LOTUS pays relabeling + H2H for nothing;
//     cover-edge counting intersects only the BFS-horizontal edges
//     and skips structure building entirely.
//
// degree-partition is deliberately never routed to: the calibration
// sweep (BENCH_PR10.json) measures it 1.3-4x behind the winner on
// every corpus graph — its per-class blocks multiply the block-triple
// enumeration without improving locality at in-memory scale. It stays
// registered for explicit selection and -tune-algo ablation.
package tune

import (
	"fmt"
	"time"

	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
	"lotustc/internal/stats"
)

// The policy thresholds. Calibrated against the BENCH_PR10.json
// auto-vs-fixed sweep (scale-15 suite + the 12-graph corpus); see
// DESIGN.md "Structural auto-tuning" for the measured margins behind
// each value.
const (
	// MinTuneVertices: below this the whole count is sub-millisecond
	// and routing overhead would dominate any win; take the default.
	MinTuneVertices = 4096
	// HubCoverageLotusPct: when at least this share of edges touches a
	// hub, the HE/H2H structures capture the work and LOTUS wins
	// (measured 67-79% on the R-MAT/Chung-Lu analogs, under 7% on
	// every flat graph — the gap is wide, the threshold uncritical).
	HubCoverageLotusPct = 35
	// CoverEdgeMaxAvgDegree: with weak hub coverage, cover-edge wins
	// only while rows are short — it intersects full (unoriented)
	// neighbour lists, so its per-cover-edge cost grows with degree
	// faster than LOTUS's oriented sweeps. Measured crossover: wins at
	// average degree 6-8 (triangulated grids 2.4x, Barabási-Albert
	// 1.35x), loses by ~20% at 16 (Erdős–Rényi) and ~40% at 32
	// (capped Chung-Lu).
	CoverEdgeMaxAvgDegree = 12.0
	// WordKernelH2HDensityPct: pin the word-parallel phase-1 kernel
	// only when the H2H bit array is over half full; at 40-50%
	// density the measured word-vs-auto gap is inside noise, and
	// pinning word there regressed cl-web20 by 6%.
	WordKernelH2HDensityPct = 50.0
)

// Overrides force parts of a decision for ablation. Empty fields
// leave the policy's choice in place.
type Overrides struct {
	// Algorithm pins the routed algorithm (e.g. "lotus" to measure
	// what auto would have cost without the new kernels).
	Algorithm string
	// Phase1Kernel / IntersectKernel pin the kernel knobs.
	Phase1Kernel    string
	IntersectKernel string
}

// Decision is one routing choice plus its full provenance.
type Decision struct {
	// Algorithm is the registry kernel to run.
	Algorithm string
	// Phase1Kernel / IntersectKernel are the selected kernel knobs
	// ("" = engine default); IntersectKernel governs NNN only.
	Phase1Kernel    string
	IntersectKernel string
	// Reason is the one-line policy explanation.
	Reason string
	// Overridden marks a decision forced by an Overrides field.
	Overridden bool
	// Probe holds the stats the policy read; ProbeTime what measuring
	// them cost.
	Probe     stats.Probe
	ProbeTime time.Duration
}

// Analyze probes g and decides. hubCount has core.Options semantics
// (0 = adaptive); pool supplies probe workers and cancellation.
func Analyze(g *graph.Graph, hubCount int, pool *sched.Pool, ov Overrides) Decision {
	t0 := time.Now()
	p := stats.ComputeProbe(g, hubCount, pool)
	d := Decide(p, ov)
	d.ProbeTime = time.Since(t0)
	return d
}

// Decide evaluates the routing policy on an already-computed probe.
func Decide(p stats.Probe, ov Overrides) Decision {
	d := decide(p)
	if ov.Algorithm != "" && ov.Algorithm != d.Algorithm {
		d.Algorithm = ov.Algorithm
		d.Reason = fmt.Sprintf("override: algorithm pinned to %q (policy chose %s)", ov.Algorithm, d.Reason)
		d.Overridden = true
	}
	if ov.Phase1Kernel != "" {
		d.Phase1Kernel = ov.Phase1Kernel
		d.Overridden = true
	}
	if ov.IntersectKernel != "" {
		d.IntersectKernel = ov.IntersectKernel
		d.Overridden = true
	}
	d.Probe = p
	return d
}

// decide is the ordered decision list. Branches are checked top to
// bottom; the first match wins.
func decide(p stats.Probe) Decision {
	// The adaptive intersection dispatcher is never worse than pinned
	// merge in the sweep, so every branch selects it explicitly.
	const adaptive = "adaptive"
	phase1 := "auto"
	if p.H2HDensityPct >= WordKernelH2HDensityPct {
		phase1 = "word"
	}
	switch {
	case p.Edges == 0:
		return Decision{Algorithm: "lotus", Phase1Kernel: "auto", IntersectKernel: adaptive,
			Reason: "empty graph: nothing to route, take the default"}
	case p.Vertices < MinTuneVertices:
		return Decision{Algorithm: "lotus", Phase1Kernel: "auto", IntersectKernel: adaptive,
			Reason: fmt.Sprintf("tiny graph (|V| %d < %d): routing overhead would dominate, take the default",
				p.Vertices, MinTuneVertices)}
	case p.HubEdgeCoveragePct >= HubCoverageLotusPct:
		return Decision{Algorithm: "lotus", Phase1Kernel: phase1, IntersectKernel: adaptive,
			Reason: fmt.Sprintf("hub edge coverage %.1f%% >= %.0f%%: the HE/H2H structures capture the work (gini %.2f)",
				p.HubEdgeCoveragePct, float64(HubCoverageLotusPct), p.DegreeGini)}
	case p.AvgDegree <= CoverEdgeMaxAvgDegree:
		return Decision{Algorithm: "cover-edge", IntersectKernel: adaptive,
			Reason: fmt.Sprintf("weak hub coverage (%.1f%% < %.0f%%) and short rows (avg degree %.1f <= %.0f): skip hub machinery, intersect only cover edges",
				p.HubEdgeCoveragePct, float64(HubCoverageLotusPct), p.AvgDegree, CoverEdgeMaxAvgDegree)}
	default:
		return Decision{Algorithm: "lotus", Phase1Kernel: phase1, IntersectKernel: adaptive,
			Reason: fmt.Sprintf("weak hub coverage (%.1f%%) but dense rows (avg degree %.1f > %.0f): unoriented cover-edge intersections would lose to the oriented sweeps",
				p.HubEdgeCoveragePct, p.AvgDegree, CoverEdgeMaxAvgDegree)}
	}
}

// Report converts the decision into the run-report wire block.
func (d *Decision) Report() *obs.TuneDecision {
	return &obs.TuneDecision{
		Algorithm:       d.Algorithm,
		Phase1Kernel:    d.Phase1Kernel,
		IntersectKernel: d.IntersectKernel,
		Reason:          d.Reason,
		Overridden:      d.Overridden,
		ProbeNS:         d.ProbeTime.Nanoseconds(),
		Stats:           d.Probe.StatsMap(),
	}
}

// Publish records the decision on a metrics registry: the probe
// counters, the per-algorithm decision counter, and the permille
// stat gauges /metrics mirrors. Nil-safe like every obs method.
func (d *Decision) Publish(m *obs.Metrics) {
	m.Add(obs.TuneProbes, 1)
	m.AddDuration(obs.TuneProbeNS, d.ProbeTime)
	m.Add(obs.TuneDecisionPrefix+d.Algorithm, 1)
	if d.Overridden {
		m.Add(obs.TuneOverridden, 1)
	}
	m.Set(obs.TuneStatGiniPermille, int64(d.Probe.DegreeGini*1000))
	m.Set(obs.TuneStatHubCoveragePermille, int64(d.Probe.HubEdgeCoveragePct*10))
	m.Set(obs.TuneStatH2HDensityPermille, int64(d.Probe.H2HDensityPct*10))
	m.Set(obs.TuneStatAssortPermille, int64(d.Probe.Assortativity*1000))
}
