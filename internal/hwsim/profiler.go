package hwsim

import "sort"

// LineProfiler counts accesses per cacheline of one array, powering
// the Fig 9 analysis: sort cachelines by access frequency, accumulate
// their access counts and report what fraction of all accesses the
// top-k lines satisfy ("64 MB of cache suffices for 90% of H2H
// accesses", §5.7).
type LineProfiler struct {
	counts []uint64
	total  uint64
}

// NewLineProfiler profiles an array of the given number of 64-byte
// cachelines.
func NewLineProfiler(lines int) *LineProfiler {
	return &LineProfiler{counts: make([]uint64, lines)}
}

// Touch records one access to the given line.
func (p *LineProfiler) Touch(line uint64) {
	p.counts[line]++
	p.total++
}

// Total returns the number of recorded accesses.
func (p *LineProfiler) Total() uint64 { return p.total }

// Lines returns the number of profiled cachelines.
func (p *LineProfiler) Lines() int { return len(p.counts) }

// CDF returns the cumulative access fraction satisfied by the k most
// frequently accessed cachelines, for each requested k (Fig 9's
// x-axis). Ks beyond the line count saturate at 1 (or at the total
// coverage).
func (p *LineProfiler) CDF(ks []int) []float64 {
	sorted := append([]uint64(nil), p.counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	out := make([]float64, len(ks))
	if p.total == 0 {
		return out
	}
	// Prefix sums once; answer each k by lookup.
	prefix := make([]uint64, len(sorted)+1)
	for i, c := range sorted {
		prefix[i+1] = prefix[i] + c
	}
	for i, k := range ks {
		if k > len(sorted) {
			k = len(sorted)
		}
		if k < 0 {
			k = 0
		}
		out[i] = float64(prefix[k]) / float64(p.total)
	}
	return out
}

// LinesForCoverage returns the minimum number of top cachelines
// needed to satisfy the given fraction of accesses (e.g. 0.90 — the
// §5.7 "90% of accesses" headline).
func (p *LineProfiler) LinesForCoverage(frac float64) int {
	sorted := append([]uint64(nil), p.counts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	if p.total == 0 {
		return 0
	}
	target := uint64(frac * float64(p.total))
	var acc uint64
	for i, c := range sorted {
		acc += c
		if acc >= target {
			return i + 1
		}
	}
	return len(sorted)
}
