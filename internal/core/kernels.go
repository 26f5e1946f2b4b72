package core

import "fmt"

// Phase1Kernel selects how phase 1 probes the H2H bit array for each
// h1 row (the DESIGN.md "Kernel selection" section discusses the
// trade-off).
type Phase1Kernel int

const (
	// Phase1Auto picks per row: the word kernel when the row's pair
	// count makes word-parallel AND+popcount cheaper than single-bit
	// probes, the scalar kernel otherwise. This is the default.
	Phase1Auto Phase1Kernel = iota
	// Phase1Scalar probes each (h1, h2) pair as a single IsSet bit
	// test — the pre-PR5 behaviour, kept as the ablation baseline.
	Phase1Scalar
	// Phase1Word intersects each h1 row against a per-worker bitmap
	// of the vertex's hub neighbours, 64 pairs per AND+popcount.
	Phase1Word
)

// String names the kernel for flags and reports.
func (k Phase1Kernel) String() string {
	switch k {
	case Phase1Scalar:
		return "scalar"
	case Phase1Word:
		return "word"
	default:
		return "auto"
	}
}

// ParsePhase1Kernel maps a flag value to a kernel. The empty string
// selects the default (auto).
func ParsePhase1Kernel(s string) (Phase1Kernel, error) {
	switch s {
	case "", "auto":
		return Phase1Auto, nil
	case "scalar":
		return Phase1Scalar, nil
	case "word":
		return Phase1Word, nil
	}
	return Phase1Auto, fmt.Errorf("unknown phase-1 kernel %q (want auto, scalar or word)", s)
}

// IntersectKernel selects the intersection strategy for the NNN phase.
// HNN always probes HE rows against a per-worker hub bitmap
// (intersect.HubBitmap), which needs no dispatch.
type IntersectKernel int

const (
	// IntersectAdaptive dispatches per pair of rows: galloping search
	// when one row is ≥ intersect.GallopRatio× the other, merge join
	// otherwise. This is the default.
	IntersectAdaptive IntersectKernel = iota
	// IntersectMerge always uses the linear merge join — the paper's
	// §4.4.3 choice and the pre-PR5 behaviour, kept as the ablation
	// baseline.
	IntersectMerge
)

// String names the kernel for flags and reports.
func (k IntersectKernel) String() string {
	if k == IntersectMerge {
		return "merge"
	}
	return "adaptive"
}

// ParseIntersectKernel maps a flag value to a kernel. The empty
// string selects the default (adaptive).
func ParseIntersectKernel(s string) (IntersectKernel, error) {
	switch s {
	case "", "adaptive":
		return IntersectAdaptive, nil
	case "merge":
		return IntersectMerge, nil
	}
	return IntersectAdaptive, fmt.Errorf("unknown intersect kernel %q (want adaptive or merge)", s)
}

// wordRowThreshold reports whether the word kernel is the cheaper way
// to probe row h1 when the scalar path would test `pairs` individual
// bits: the word path reads (h1+63)/64 row words (bitmap words are
// L1-resident), the scalar path does `pairs` dependent bit probes. The
// factor 2 absorbs the word path's per-row overhead (shifted two-word
// assembly) and the amortized bitmap population.
func wordRowThreshold(pairs int, h1 uint32) bool {
	return pairs >= 2*((int(h1)>>6)+1)
}
