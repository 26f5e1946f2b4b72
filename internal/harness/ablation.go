package harness

import (
	"fmt"
	"io"
	"time"

	"lotustc/internal/approx"
	"lotustc/internal/baseline"
	"lotustc/internal/core"
	"lotustc/internal/intersect"
	"lotustc/internal/kclique"
	"lotustc/internal/obs"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
)

// hashH2H is the §5.7 strawman: hub-to-hub adjacency in a hash set
// keyed by the packed (h1,h2) pair instead of the dense triangular
// bit array.
type hashH2H map[uint64]struct{}

func packPair(h1, h2 uint32) uint64 {
	if h1 < h2 {
		h1, h2 = h2, h1
	}
	return uint64(h1)<<32 | uint64(h2)
}

func buildHashH2H(s *core.LotusShard) hashH2H {
	h := make(hashH2H)
	for v := uint32(0); v < s.HubCount && int(v) < s.NumVertices(); v++ {
		for _, u := range s.HE.Neighbors(v) {
			h[packPair(v, uint32(u))] = struct{}{}
		}
	}
	return h
}

// phase1WithHash counts HHH+HHN probing the hash set.
func phase1WithHash(s *core.LotusShard, h hashH2H) uint64 {
	var triangles uint64
	n := s.NumVertices()
	for v := 0; v < n; v++ {
		nv := s.HE.Neighbors(uint32(v))
		for i := 1; i < len(nv); i++ {
			for j := 0; j < i; j++ {
				if _, ok := h[packPair(uint32(nv[i]), uint32(nv[j]))]; ok {
					triangles++
				}
			}
		}
	}
	return triangles
}

// phase1WithBits is the serial bit-array phase 1 for a like-for-like
// single-thread comparison: the counting path's scalar hub-pair kernel
// run vertex by vertex on one worker.
func phase1WithBits(s *core.LotusShard) uint64 {
	pool := sched.NewPool(1)
	var bm intersect.HubBitmap
	var triangles uint64
	n := s.NumVertices()
	for v := 0; v < n; v++ {
		if nv := s.HE.Neighbors(uint32(v)); len(nv) >= 2 {
			found, _ := core.CountHubPairs(core.Phase1Scalar, pool, s.H2H, &bm, nv, nv, 1, len(nv))
			triangles += found
		}
	}
	return triangles
}

// RunAblationH2H compares the H2H bit array against a hash-set
// representation for phase 1 (§5.7's argument for the bit array).
func RunAblationH2H(w io.Writer, s Suite) {
	fmt.Fprintln(w, "=== Ablation: H2H bit array vs hash set (phase 1, single thread) ===")
	fmt.Fprintf(w, "%-12s %12s %12s %10s %14s %14s\n",
		"dataset", "bitarray(s)", "hash(s)", "speedup", "bits bytes", "hash entries")
	pool := s.NewPool(0)
	for _, d := range s.Datasets() {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		flat := lg.Flat()
		h := buildHashH2H(flat)

		t0 := time.Now()
		a := phase1WithBits(flat)
		bitS := time.Since(t0).Seconds()
		t1 := time.Now()
		b := phase1WithHash(flat, h)
		hashS := time.Since(t1).Seconds()
		if a != b {
			fmt.Fprintf(w, "%-12s COUNT MISMATCH %d vs %d\n", d.Name, a, b)
			continue
		}
		fmt.Fprintf(w, "%-12s %12.3f %12.3f %9.2fx %14d %14d\n",
			d.Name, bitS, hashS, hashS/bitS, flat.H2H.SizeBytes(), len(h))
	}
	fmt.Fprintln(w, "(paper §5.7: hashing imposes more instructions per access and more memory; bit array wins)")
}

// RunAblationIntersect compares the intersection kernels inside the
// Forward algorithm (§6.3 design space; LOTUS picks merge join for
// the short non-hub lists).
func RunAblationIntersect(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintln(w, "=== Ablation: intersection kernels in the Forward algorithm ===")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "dataset", "merge", "binary", "hash", "galloping")
	kernels := []baseline.Kernel{baseline.KernelMerge, baseline.KernelBinary, baseline.KernelHash, baseline.KernelGalloping}
	for _, d := range s.Datasets() {
		g := d.Build()
		fmt.Fprintf(w, "%-12s", d.Name)
		var counts []uint64
		for _, k := range kernels {
			t0 := time.Now()
			c := baseline.Forward(g, pool, k)
			fmt.Fprintf(w, " %10.3f", time.Since(t0).Seconds())
			counts = append(counts, c)
		}
		for _, c := range counts[1:] {
			if c != counts[0] {
				fmt.Fprintf(w, " COUNT MISMATCH")
				break
			}
		}
		fmt.Fprintln(w)
	}
}

// RunAblationRelabel compares LOTUS's relabeling (§4.3.1: hubs +
// top-10% first, original order preserved elsewhere) against full
// degree ordering, which destroys the graph's initial locality.
func RunAblationRelabel(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintln(w, "=== Ablation: Lotus relabeling vs full degree ordering ===")
	fmt.Fprintf(w, "%-12s %14s %14s %14s %14s\n",
		"dataset", "lotus pre(s)", "lotus count(s)", "degord pre(s)", "degord count(s)")
	for _, d := range s.Datasets() {
		g := d.Build()
		// LOTUS relabeling.
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		r1 := lg.Count(pool)
		// Full degree ordering first, then LOTUS on the ordered
		// graph: the front block is already ordered, so the combined
		// permutation equals full degree ordering.
		t0 := time.Now()
		gd := g.Relabel(reorder.DegreeOrder(g))
		lgd := core.Preprocess(gd, core.Options{Pool: pool})
		if lgd == nil {
			return
		}
		pre2 := time.Since(t0)
		r2 := lgd.Count(pool)
		if r1.Total != r2.Total {
			fmt.Fprintf(w, "%-12s COUNT MISMATCH\n", d.Name)
			continue
		}
		c1 := r1.Phase1Time + r1.HNNTime + r1.NNNTime
		c2 := r2.Phase1Time + r2.HNNTime + r2.NNNTime
		fmt.Fprintf(w, "%-12s %14.3f %14.3f %14.3f %14.3f\n",
			d.Name, lg.PreprocessTime.Seconds(), c1.Seconds(), pre2.Seconds(), c2.Seconds())
	}
	fmt.Fprintln(w, "(§4.3.1: preserving original order for non-hubs keeps the graph's initial locality)")
}

// RunBaselinesClassic times the §6.1 classic algorithms LOTUS
// descends from, next to Forward and LOTUS, on each dataset.
func RunBaselinesClassic(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintln(w, "=== Classic algorithms (§6.1 lineage) vs Forward and Lotus ===")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s\n",
		"dataset", "nvl", "ni-core", "ayz", "forward", "lotus")
	for _, d := range s.Datasets() {
		g := d.Build()
		type runT struct {
			name string
			f    func() uint64
		}
		runs := []runT{
			{"nvl", func() uint64 { return baseline.NewVertexListing(g, pool) }},
			{"ni-core", func() uint64 { return baseline.NodeIteratorCore(g, pool) }},
			{"ayz", func() uint64 { return baseline.AYZ(g, pool, 0) }},
			{"forward", func() uint64 { return baseline.Forward(g, pool, baseline.KernelMerge) }},
			{"lotus", func() uint64 { return lotusTotal(g, pool) }},
		}
		fmt.Fprintf(w, "%-12s", d.Name)
		var first uint64
		bad := false
		for i, r := range runs {
			t0 := time.Now()
			c := r.f()
			fmt.Fprintf(w, " %10.3f", time.Since(t0).Seconds())
			if i == 0 {
				first = c
			} else if c != first {
				bad = true
			}
		}
		if bad {
			fmt.Fprintf(w, " COUNT MISMATCH")
		}
		fmt.Fprintln(w)
	}
}

// RunExtensionKClique compares the generic ordered k-clique counter
// against the LOTUS-structured variant (§7 future work) for k=3..5.
func RunExtensionKClique(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintln(w, "=== Extension: k-clique counting, generic vs Lotus-structured ===")
	fmt.Fprintf(w, "%-12s %3s %14s %12s %12s %10s\n", "dataset", "k", "cliques", "generic(s)", "lotus(s)", "hub-share")
	for _, d := range s.Datasets() {
		g := d.Build()
		og := g.Orient()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		nonHub := lg.NonHubSubgraph().Orient()
		for k := 3; k <= 5; k++ {
			t0 := time.Now()
			generic := kclique.Count(og, k, pool)
			tg := time.Since(t0).Seconds()
			t1 := time.Now()
			lotus := kclique.CountLotus(lg, k, pool)
			tl := time.Since(t1).Seconds()
			if generic != lotus {
				fmt.Fprintf(w, "%-12s %3d COUNT MISMATCH generic=%d lotus=%d\n", d.Name, k, generic, lotus)
				continue
			}
			hubShare := 0.0
			if generic > 0 {
				noHub := kclique.Count(nonHub, k, pool)
				hubShare = 100 * float64(generic-noHub) / float64(generic)
			}
			fmt.Fprintf(w, "%-12s %3d %14d %12.3f %12.3f %9.1f%%\n",
				d.Name, k, generic, tg, tl, hubShare)
			// Clique counts grow combinatorially with k on dense hub
			// sub-graphs; cap the sweep once a level gets expensive
			// so one dataset cannot stall the whole harness.
			if tg+tl > 20 || generic > 2_000_000_000 {
				fmt.Fprintf(w, "%-12s %3d (skipped: k=%d already took %.0fs / %d cliques)\n",
					d.Name, k+1, k, tg+tl, generic)
				break
			}
		}
	}
	fmt.Fprintln(w, "(§7: the hub share of k-cliques grows with k on skewed graphs)")
}

// RunExtensionApprox compares approximate estimators at equal
// sampling probability: Doulion vs the §6.2 LOTUS hybrid (exact hub
// triangles + sampled NNN).
func RunExtensionApprox(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintln(w, "=== Extension: approximate TC, Doulion vs Lotus hybrid (p=0.3) ===")
	fmt.Fprintf(w, "%-12s %14s %14s %14s %12s %12s\n",
		"dataset", "truth", "doulion", "hybrid", "doulion err%", "hybrid err%")
	const p = 0.3
	for _, d := range s.Datasets() {
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		truth := float64(lg.Count(pool).Total)
		if truth == 0 {
			continue
		}
		var errD, errH, lastD, lastH float64
		const runs = 3
		for seed := int64(0); seed < runs; seed++ {
			lastD = approx.Doulion(g, p, seed, pool)
			lastH = approx.Hybrid(g, p, seed, core.Options{Pool: pool}, pool).Estimate
			errD += abs(lastD-truth) / truth
			errH += abs(lastH-truth) / truth
		}
		fmt.Fprintf(w, "%-12s %14.0f %14.0f %14.0f %11.2f%% %11.2f%%\n",
			d.Name, truth, lastD, lastH, 100*errD/runs, 100*errH/runs)
	}
	fmt.Fprintln(w, "(§6.2: exact hub counting bounds sampling error by the NNN share)")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// RunAblationPhase1 compares the phase-1 kernels (scalar bit probes
// vs the word-parallel bitmap kernel, plus the per-row auto dispatch)
// on the suite's datasets. Counts must be bit-identical across
// kernels; the table reports phase-1 wall time and what the auto
// heuristic routed.
func RunAblationPhase1(w io.Writer, s Suite, workers int) {
	pool := s.NewPool(workers)
	fmt.Fprintln(w, "=== Ablation: phase-1 kernel, scalar probes vs word-parallel bitmap ===")
	fmt.Fprintf(w, "%-12s %12s %12s %12s %9s %11s %11s\n",
		"dataset", "scalar(s)", "word(s)", "auto(s)", "speedup", "auto-word", "auto-scalar")
	for _, d := range s.Datasets() {
		if s.Context().Err() != nil {
			return
		}
		g := d.Build()
		lg := core.Preprocess(g, core.Options{Pool: pool})
		if lg == nil {
			return
		}
		var times [3]float64
		var results [3]*core.Result
		var autoMetrics *obs.Metrics
		for i, k := range []core.Phase1Kernel{core.Phase1Scalar, core.Phase1Word, core.Phase1Auto} {
			m := obs.New()
			r := lg.CountWithOptions(pool, core.CountOptions{Phase1Kernel: k, Metrics: m})
			times[i] = r.Phase1Time.Seconds()
			results[i] = r
			if k == core.Phase1Auto {
				autoMetrics = m
			}
		}
		for _, r := range results[1:] {
			if r.HHH != results[0].HHH || r.HHN != results[0].HHN {
				fmt.Fprintf(w, "%-12s COUNT MISMATCH %d/%d vs %d/%d\n",
					d.Name, r.HHH, r.HHN, results[0].HHH, results[0].HHN)
				return
			}
		}
		speedup := 0.0
		if times[1] > 0 {
			speedup = times[0] / times[1]
		}
		fmt.Fprintf(w, "%-12s %12.4f %12.4f %12.4f %8.2fx %11d %11d\n",
			d.Name, times[0], times[1], times[2], speedup,
			autoMetrics.Get(obs.Phase1RowsWord), autoMetrics.Get(obs.Phase1RowsScalar))
	}
	fmt.Fprintln(w, "(word kernel: per-worker hub bitmap, AND+popcount over row words — 64 scalar probes per op)")
}
