// Package locality computes exact LRU stack (reuse) distances and
// miss-ratio curves from memory reference streams, via Mattson's
// stack algorithm implemented over an order-statistics treap keyed by
// last-access time. A single pass over a kernel's reference stream
// yields the miss ratio of *every* fully-associative LRU cache size
// at once — the machine-independent form of the paper's locality
// claims (Fig 4, and the §5.2 observation that the Epyc's huge L3
// erases the LOTUS advantage: its capacity sits past the crossover of
// the two miss-ratio curves).
package locality

import "math/rand"

// treap node: keyed by last-access time, ordered, with subtree sizes
// for rank queries.
type node struct {
	time        uint64
	prio        uint64
	size        int
	left, right *node
}

func sz(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() { n.size = 1 + sz(n.left) + sz(n.right) }

// split by time: left < t, right >= t.
func split(n *node, t uint64) (*node, *node) {
	if n == nil {
		return nil, nil
	}
	if n.time < t {
		l, r := split(n.right, t)
		n.right = l
		n.update()
		return n, r
	}
	l, r := split(n.left, t)
	n.left = r
	n.update()
	return l, n
}

func merge(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio > b.prio:
		a.right = merge(a.right, b)
		a.update()
		return a
	default:
		b.left = merge(a, b.left)
		b.update()
		return b
	}
}

// Profiler computes exact stack distances online. Memory is
// proportional to the number of distinct lines, not the stream
// length.
type Profiler struct {
	root *node
	last map[uint64]uint64 // line -> last access time
	time uint64
	rng  *rand.Rand
	// hist[d] counts accesses with stack distance exactly d, bucketed
	// in powers of two: bucket i covers [2^(i-1), 2^i).
	hist  []uint64
	colds uint64
	total uint64
	// free list of nodes for reuse (one node per distinct line).
	spare *node
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{last: make(map[uint64]uint64), rng: rand.New(rand.NewSource(1))}
}

// Touch records one access to the given cacheline identifier and
// returns its stack distance (the number of distinct lines accessed
// since this line's previous access), or -1 for a cold access.
func (p *Profiler) Touch(line uint64) int {
	p.total++
	p.time++
	t := p.time
	prev, seen := p.last[line]
	p.last[line] = t
	if !seen {
		p.insert(t)
		p.colds++
		return -1
	}
	// Distance = number of tracked lines accessed after prev.
	l, r := split(p.root, prev)
	// r's smallest is prev itself; distance = size(r) - 1.
	d := sz(r) - 1
	// Remove prev from r.
	r = deleteMin(r)
	p.root = merge(l, r)
	p.insert(t)
	p.record(d)
	return d
}

// deleteMin removes the smallest-time node.
func deleteMin(n *node) *node {
	if n == nil {
		return nil
	}
	if n.left == nil {
		return n.right
	}
	n.left = deleteMin(n.left)
	n.update()
	return n
}

func (p *Profiler) insert(t uint64) {
	n := p.spare
	if n != nil {
		p.spare = n.right
		*n = node{time: t, prio: p.rng.Uint64(), size: 1}
	} else {
		n = &node{time: t, prio: p.rng.Uint64(), size: 1}
	}
	l, r := split(p.root, t)
	p.root = merge(merge(l, n), r)
}

func (p *Profiler) record(d int) {
	b := 0
	for x := d; x > 0; x >>= 1 {
		b++
	}
	for len(p.hist) <= b {
		p.hist = append(p.hist, 0)
	}
	p.hist[b]++
}

// Total returns the number of recorded accesses.
func (p *Profiler) Total() uint64 { return p.total }

// MissRatio returns the miss ratio of a fully-associative LRU cache
// holding `lines` cachelines: accesses whose stack distance meets or
// exceeds the capacity miss, plus all cold accesses. Distances are
// bucketed in powers of two, so the result is exact at power-of-two
// capacities; between powers of two it attributes whole buckets to
// the hit side (query power-of-two capacities for exact values).
func (p *Profiler) MissRatio(lines int) float64 {
	if p.total == 0 {
		return 0
	}
	misses := p.colds
	for b, c := range p.hist {
		// Bucket b covers distances [2^(b-1), 2^b) (b=0 -> {0}).
		lo := 0
		if b > 0 {
			lo = 1 << (b - 1)
		}
		if lo >= lines {
			misses += c
		}
	}
	return float64(misses) / float64(p.total)
}

// MRC returns the miss ratio at each requested capacity (in lines).
func (p *Profiler) MRC(capacities []int) []float64 {
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		out[i] = p.MissRatio(c)
	}
	return out
}
