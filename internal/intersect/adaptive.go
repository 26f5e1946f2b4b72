package intersect

// Adaptive kernel dispatch. Bader et al. (Cover-Edge TC) and Sanders
// & Uhl (Engineering Distributed-Memory TC) both report that the
// choice of set-intersection kernel — merge vs. binary/galloping
// search — dominates triangle-counting runtime, and that the right
// choice depends on the size ratio of the two lists: a linear merge
// touches every element of both lists, while galloping touches
// O(|short| · log |long|). Cover-edge's weighted intersection
// dispatches on the size ratio below. (LOTUS needs no dispatch: NNN
// probes a per-worker VertexBitmap and HNN a HubBitmap, both one load
// per element whatever the ratio.)

// GallopRatio is the size ratio past which the adaptive dispatcher
// abandons merge join for galloping search: merge costs
// |a|+|b| element steps, galloping ~ |a|·(log2(|b|/|a|)+2), so the
// crossover is near |b|/|a| ≈ 8-32 depending on branch behaviour; 16
// keeps the dispatch test to one shift and one compare.
const GallopRatio = 16

// UseGalloping reports whether the adaptive dispatch picks the
// galloping kernel for lists of the given lengths. The cover-edge
// weighted intersection branches on it.
func UseGalloping(la, lb int) bool {
	if la > lb {
		la, lb = lb, la
	}
	return la > 0 && lb >= la*GallopRatio
}
