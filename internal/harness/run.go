package harness

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one runnable reproduction target.
type Experiment struct {
	ID          string
	Description string
	Run         func(w io.Writer, s Suite, workers int)
}

// Experiments returns the full experiment registry, keyed as in
// DESIGN.md's per-experiment index.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: topological characteristics of hubs (1% hub set)",
			func(w io.Writer, s Suite, _ int) { RunTable1(w, s) }},
		{"table5", "Tables 5/6 + Fig 1: end-to-end runtimes and TC rates vs baselines",
			func(w io.Writer, s Suite, workers int) { RunTable5(w, s, workers) }},
		{"table7", "Table 7: topology data size, CSX vs LOTUS",
			func(w io.Writer, s Suite, _ int) { RunTable7(w, s) }},
		{"table8", "Table 8: H2H bit array density and zero cachelines",
			func(w io.Writer, s Suite, _ int) { RunTable8(w, s) }},
		{"table9", "Table 9: phase-1 load balance, edge-balanced vs squared edge tiling",
			func(w io.Writer, s Suite, workers int) { RunTable9(w, s, workers) }},
		{"fig4", "Fig 4+5: modeled LLC/DTLB misses, accesses, instructions, branch misses",
			func(w io.Writer, s Suite, _ int) { RunFig4And5(w, s) }},
		{"fig5", "alias of fig4 (both figures come from the same replay)",
			func(w io.Writer, s Suite, _ int) { RunFig4And5(w, s) }},
		{"fig6", "Fig 6: LOTUS execution breakdown",
			func(w io.Writer, s Suite, workers int) { RunFig6(w, s, workers) }},
		{"fig7", "Fig 7: hub vs non-hub triangles",
			func(w io.Writer, s Suite, _ int) { RunFig7(w, s) }},
		{"fig8", "Fig 8: edges in HE vs NHE",
			func(w io.Writer, s Suite, _ int) { RunFig8(w, s) }},
		{"fig9", "Fig 9: H2H cacheline access concentration",
			func(w io.Writer, s Suite, _ int) { RunFig9(w, s) }},
		{"ablation-h2h", "Ablation: H2H bit array vs hash set",
			func(w io.Writer, s Suite, _ int) { RunAblationH2H(w, s) }},
		{"ablation-intersect", "Ablation: intersection kernels in Forward",
			func(w io.Writer, s Suite, workers int) { RunAblationIntersect(w, s, workers) }},
		{"ablation-relabel", "Ablation: LOTUS relabeling vs full degree ordering",
			func(w io.Writer, s Suite, workers int) { RunAblationRelabel(w, s, workers) }},
		{"ablation-phase1", "Ablation: phase-1 kernel, scalar probes vs word-parallel bitmap",
			func(w io.Writer, s Suite, workers int) { RunAblationPhase1(w, s, workers) }},
		{"baselines-classic", "Classic §6.1 algorithms (Latapy, node-iterator-core, AYZ)",
			func(w io.Writer, s Suite, workers int) { RunBaselinesClassic(w, s, workers) }},
		{"ext-kclique", "Extension: k-clique counting, generic vs Lotus-structured",
			func(w io.Writer, s Suite, workers int) { RunExtensionKClique(w, s, workers) }},
		{"ext-approx", "Extension: approximate TC, Doulion vs Lotus hybrid",
			func(w io.Writer, s Suite, workers int) { RunExtensionApprox(w, s, workers) }},
		{"arch", "Architecture sweep (§5.2): LOTUS advantage vs LLC size",
			func(w io.Writer, s Suite, _ int) { RunArchSweep(w, s) }},
		{"mrc", "Miss-ratio curves: exact LRU stack analysis of both kernels",
			func(w io.Writer, s Suite, _ int) { RunMRC(w, s) }},
	}
}

// Find returns the experiment with the given ID, or nil.
func Find(id string) *Experiment {
	for _, e := range Experiments() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment (skipping the fig5 alias) into w.
// When the suite carries a context it stops as soon as the context is
// done — in-flight experiments finish cooperatively via their bound
// pools — and returns the context's error.
func RunAll(w io.Writer, s Suite, workers int) error {
	ctx := s.Context()
	for _, e := range Experiments() {
		if e.ID == "fig5" {
			continue
		}
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "(run aborted: %v)\n", err)
			return err
		}
		e.Run(w, s, workers)
		fmt.Fprintln(w)
	}
	return ctx.Err()
}
