package intersect

// Adaptive kernel dispatch. Bader et al. (Cover-Edge TC) and Sanders
// & Uhl (Engineering Distributed-Memory TC) both report that the
// choice of set-intersection kernel — merge vs. binary/galloping
// search — dominates triangle-counting runtime, and that the right
// choice depends on the size ratio of the two lists: a linear merge
// touches every element of both lists, while galloping touches
// O(|short| · log |long|). On skewed graphs the NNN phase often
// intersects a vertex's short row with a high-degree neighbour's long
// one, so a single unconditional kernel leaves time on the table in
// one regime or the other. (HNN rows hold 16-bit hub IDs and use the
// HubBitmap kernel instead, which needs no dispatch.)

// GallopRatio is the size ratio past which the adaptive dispatcher
// abandons merge join for galloping search: merge costs
// |a|+|b| element steps, galloping ~ |a|·(log2(|b|/|a|)+2), so the
// crossover is near |b|/|a| ≈ 8-32 depending on branch behaviour; 16
// keeps the dispatch test to one shift and one compare.
const GallopRatio = 16

// UseGalloping reports whether the adaptive dispatcher would pick the
// galloping kernel for lists of the given lengths. It is exported so
// hot loops that need per-kernel dispatch counters can branch on the
// same predicate the Adaptive kernels use without calling through
// them.
func UseGalloping(la, lb int) bool {
	if la > lb {
		la, lb = lb, la
	}
	return la > 0 && lb >= la*GallopRatio
}

// Adaptive counts |a ∩ b| with the size-ratio dispatch: galloping
// search when one list dwarfs the other, merge join otherwise.
func Adaptive(a, b []uint32) uint64 {
	if UseGalloping(len(a), len(b)) {
		return Galloping(a, b)
	}
	return Merge(a, b)
}
