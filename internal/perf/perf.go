// Package perf replays the exact memory reference streams of the
// Forward and LOTUS counting kernels through the hwsim machine models
// to reproduce the paper's hardware-counter experiments: Fig 4 (LLC
// and DTLB misses), Fig 5 (memory accesses, instructions, branch
// mispredictions) and Fig 9 (H2H cacheline access CDF).
//
// The instrumented kernels are single-threaded replicas of the real
// kernels: they compute the same triangle totals (asserted by tests)
// while issuing one model access per topology load. Arrays are mapped
// to disjoint synthetic address regions at their true element widths
// (8-byte offsets, 4-byte neighbour IDs, 2-byte HE IDs, 1-bit H2H
// entries), so capacity and TLB behaviour match the paper's layouts.
// The "instructions" metric is an operation-count proxy (loads +
// compares + branches + increments) rather than retired µops; it
// tracks the paper's 1.7x algorithmic-work argument, not a cycle
// model.
package perf

import (
	"math/bits"

	"lotustc/internal/bitarray"
	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/hwsim"
	"lotustc/internal/locality"
	"lotustc/internal/reorder"
)

// Synthetic base addresses: 16 GiB apart so regions never collide.
const (
	baseForwardOff = 0x1 << 34
	baseForwardNbr = 0x2 << 34
	baseHEOff      = 0x3 << 34
	baseHENbr      = 0x4 << 34
	baseNHEOff     = 0x5 << 34
	baseNHENbr     = 0x6 << 34
	baseH2H        = 0x7 << 34
	// baseScratch maps the word kernel's per-worker hub bitmap. It is
	// ≤8 KB and reused across every row, so in the model it lives in
	// its own region and stays L1-resident — the property the kernel
	// is designed around.
	baseScratch = 0x8 << 34
)

// Branch sites (synthetic PCs) for the predictor.
const (
	siteMergeLess = 0x100
	siteMergeEq   = 0x108
	siteH2HProbe  = 0x110
)

// Events aggregates the modeled hardware events of one kernel run.
type Events struct {
	Name         string
	Triangles    uint64
	MemAccesses  uint64 // Fig 5a: loads/stores issued to the model
	Instructions uint64 // Fig 5b proxy: loads+compares+branches+adds
	Branches     uint64
	BranchMisses uint64 // Fig 5c
	LLCMisses    uint64 // Fig 4a
	TLBMisses    uint64 // Fig 4b
	// EstimatedCycles charges each access its hit-level latency under
	// the hwsim latency/NUMA model — the replay's single-figure
	// stand-in for execution time.
	EstimatedCycles uint64
}

// refSink receives a kernel's reference stream. machineState (the
// hwsim machine models) and localitySink (exact reuse-distance
// analysis) both implement it, so each instrumented kernel is written
// once and replayed against either backend.
type refSink interface {
	load(addr uint64, size int)
	branch(site uint64, taken bool)
	addOp()
}

// machineState bundles the models one instrumented run drives.
type machineState struct {
	h   *hwsim.Hierarchy
	bp  *hwsim.BranchPredictor
	ops uint64
}

func newMachine(cfg hwsim.MachineConfig) *machineState {
	h := hwsim.NewHierarchy(cfg)
	// Two interleaved NUMA nodes, matching the paper's dual-socket
	// SkyLakeX/Epyc setups with the interleave policy (§5.1.3).
	h.AttachLatency(hwsim.DefaultLatencies(2))
	return &machineState{h: h, bp: hwsim.NewBranchPredictor(14)}
}

func (m *machineState) load(addr uint64, size int) {
	m.h.Access(addr, size)
	m.ops++
}

func (m *machineState) branch(site uint64, taken bool) {
	m.bp.Record(site, taken)
	m.ops++
}

func (m *machineState) addOp() { m.ops++ }

func (m *machineState) events(name string, triangles uint64) Events {
	br, bm := m.bp.Stats()
	return Events{
		Name:            name,
		Triangles:       triangles,
		MemAccesses:     m.h.MemAccesses,
		Instructions:    m.ops,
		Branches:        br,
		BranchMisses:    bm,
		LLCMisses:       m.h.LLCMisses(),
		TLBMisses:       m.h.TLBMisses(),
		EstimatedCycles: m.h.Cycles(),
	}
}

// mergeJoin replays an instrumented merge join between two neighbour
// slices whose elements live at the given bases/widths.
func mergeJoin(m refSink, a []uint32, aBase uint64, aOff int64, b []uint32, bBase uint64, bOff int64, width int) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		m.load(aBase+uint64(aOff+int64(i))*uint64(width), width)
		m.load(bBase+uint64(bOff+int64(j))*uint64(width), width)
		less := a[i] < b[j]
		m.branch(siteMergeLess, less)
		switch {
		case less:
			i++
		case a[i] > b[j]:
			m.branch(siteMergeEq, false)
			j++
		default:
			m.branch(siteMergeEq, true)
			n++
			m.addOp() // increment
			i++
			j++
		}
	}
	return n
}

// InstrumentedForward runs Algorithm 1 (degree ordering + merge-join
// Forward) serially, replaying its reference stream on the machine
// model. Preprocessing (the relabel/orient) is not instrumented: the
// paper's Fig 4/5 compare the counting kernels' locality.
func InstrumentedForward(g *graph.Graph, cfg hwsim.MachineConfig) Events {
	ra := reorder.DegreeOrder(g)
	og := g.Relabel(ra).Orient()
	m := newMachine(cfg)
	triangles := runForward(og, m)
	return m.events(cfg.Name+"/forward", triangles)
}

// runForward replays the Forward counting kernel's reference stream
// into the sink and returns the triangle count.
func runForward(og *graph.Graph, m refSink) uint64 {
	offsets := og.Offsets()
	var triangles uint64
	n := og.NumVertices()
	for v := 0; v < n; v++ {
		m.load(baseForwardOff+uint64(v)*8, 8)
		m.load(baseForwardOff+uint64(v+1)*8, 8)
		nv := og.Neighbors(uint32(v))
		for idx, u := range nv {
			m.load(baseForwardNbr+uint64(offsets[v]+int64(idx))*4, 4)
			m.load(baseForwardOff+uint64(u)*8, 8)
			m.load(baseForwardOff+uint64(u+1)*8, 8)
			nu := og.Neighbors(u)
			triangles += mergeJoin(m, nv, baseForwardNbr, offsets[v], nu, baseForwardNbr, offsets[u], 4)
		}
	}
	return triangles
}

// InstrumentedLotus runs Algorithm 3 serially on a preprocessed
// LotusGraph, replaying its three phases' reference streams with the
// scalar phase-1 kernel (the paper's probe loop).
func InstrumentedLotus(lg *core.LotusGraph, cfg hwsim.MachineConfig) Events {
	return InstrumentedLotusKernel(lg, cfg, false)
}

// InstrumentedLotusKernel is InstrumentedLotus with a selectable
// phase-1 kernel: wordPhase1 replays the word-parallel bitmap kernel's
// reference stream instead of per-pair bit probes. (The runtime's auto
// mode is a per-row mix of the two; the replay models the pure
// kernels so their streams can be compared.)
func InstrumentedLotusKernel(lg *core.LotusGraph, cfg hwsim.MachineConfig, wordPhase1 bool) Events {
	m := newMachine(cfg)
	triangles := runLotusKernel(lg, m, wordPhase1)
	name := cfg.Name + "/lotus"
	if wordPhase1 {
		name += "/phase1=word"
	}
	return m.events(name, triangles)
}

// runLotus replays the three LOTUS counting phases' reference
// streams into the sink and returns the triangle count.
func runLotus(lg *core.LotusGraph, m refSink) uint64 {
	return runLotusKernel(lg, m, false)
}

func runLotusKernel(lg *core.LotusGraph, m refSink, wordPhase1 bool) uint64 {
	var triangles uint64
	if wordPhase1 {
		triangles = replayPhase1Word(lg, m)
	} else {
		triangles = replayPhase1Scalar(lg, m)
	}
	return triangles + replayPhases23(lg, m)
}

// replayPhase1Scalar replays phase 1 (HHH + HHN) with per-pair bit
// probes: sequential HE row reads, random H2H probes.
func replayPhase1Scalar(lg *core.LotusGraph, m refSink) uint64 {
	heOff := lg.HE.Offsets()
	var triangles uint64
	n := lg.NumVertices()
	for v := 0; v < n; v++ {
		m.load(baseHEOff+uint64(v)*8, 8)
		m.load(baseHEOff+uint64(v+1)*8, 8)
		nv := lg.HE.Neighbors(uint32(v))
		for i := 1; i < len(nv); i++ {
			m.load(baseHENbr+uint64(heOff[v]+int64(i))*2, 2)
			h1 := uint32(nv[i])
			row := lg.H2H.Row(h1)
			for j := 0; j < i; j++ {
				m.load(baseHENbr+uint64(heOff[v]+int64(j))*2, 2)
				h2 := uint32(nv[j])
				// One 8-byte word read of the bit array.
				bit := bitarray.BitIndex(h1, h2)
				m.load(baseH2H+(bit>>6)*8, 8)
				hit := row.IsSet(h2)
				m.branch(siteH2HProbe, hit)
				if hit {
					triangles++
					m.addOp()
				}
			}
		}
	}
	return triangles
}

// replayPhase1Word replays phase 1 with the word-parallel kernel: the
// vertex's hub neighbours are scattered into the scratch bitmap once
// (one HE read plus one bitmap word touch each), then each h1 row is
// read word-by-word from H2H and ANDed against the bitmap — no
// per-pair branch, so the probe branch site disappears from the
// stream, and the H2H traffic becomes sequential within each row.
func replayPhase1Word(lg *core.LotusGraph, m refSink) uint64 {
	heOff := lg.HE.Offsets()
	var triangles uint64
	n := lg.NumVertices()
	bm := make([]uint64, (int(lg.HubCount)+63)/64)
	for v := 0; v < n; v++ {
		m.load(baseHEOff+uint64(v)*8, 8)
		m.load(baseHEOff+uint64(v+1)*8, 8)
		nv := lg.HE.Neighbors(uint32(v))
		if len(nv) < 2 {
			continue
		}
		for j, h := range nv {
			m.load(baseHENbr+uint64(heOff[v]+int64(j))*2, 2)
			m.load(baseScratch+uint64(h>>6)*8, 8)
			bm[h>>6] |= 1 << (h & 63)
			m.addOp()
		}
		for i := 1; i < len(nv); i++ {
			h1 := uint32(nv[i])
			row := lg.H2H.Row(h1)
			rowBase := bitarray.BitIndex(h1, 0)
			nw := row.NumWords()
			for w := uint32(0); w < nw; w++ {
				// One row-word read (the shifted two-word assembly
				// stays within one extra cacheline-adjacent word) and
				// one L1-resident bitmap word.
				m.load(baseH2H+((rowBase+uint64(w)*64)>>6)*8, 8)
				m.load(baseScratch+uint64(w)*8, 8)
				triangles += uint64(bits.OnesCount64(row.Word(w) & bm[w]))
				m.addOp() // AND+popcount
			}
		}
		for _, h := range nv {
			m.load(baseScratch+uint64(h>>6)*8, 8)
			bm[h>>6] = 0
		}
	}
	return triangles
}

// replayPhases23 replays the HNN and NNN phases (shared by both
// phase-1 kernels). HNN is replayed as the paper's merge join over HE
// rows (§4.4.3), not the library's hub-bitmap probe: the Fig 4/5
// models reproduce the paper's reference stream on purpose.
func replayPhases23(lg *core.LotusGraph, m refSink) uint64 {
	heOff := lg.HE.Offsets()
	nheOff := lg.NHE.Offsets()
	var triangles uint64
	n := lg.NumVertices()

	// Phase 2: HNN. Streamed NHE traversal; random HE row loads.
	for v := 0; v < n; v++ {
		m.load(baseNHEOff+uint64(v)*8, 8)
		m.load(baseNHEOff+uint64(v+1)*8, 8)
		hv := lg.HE.Neighbors(uint32(v))
		nhe := lg.NHE.Neighbors(uint32(v))
		for idx, u := range nhe {
			m.load(baseNHENbr+uint64(nheOff[v]+int64(idx))*4, 4)
			m.load(baseHEOff+uint64(u)*8, 8)
			m.load(baseHEOff+uint64(u+1)*8, 8)
			hu := lg.HE.Neighbors(u)
			triangles += mergeJoin16(m, hv, heOff[v], hu, heOff[u])
		}
	}

	// Phase 3: NNN. Forward over the NHE sub-graph only.
	for v := 0; v < n; v++ {
		m.load(baseNHEOff+uint64(v)*8, 8)
		m.load(baseNHEOff+uint64(v+1)*8, 8)
		nv := lg.NHE.Neighbors(uint32(v))
		for idx, u := range nv {
			m.load(baseNHENbr+uint64(nheOff[v]+int64(idx))*4, 4)
			m.load(baseNHEOff+uint64(u)*8, 8)
			m.load(baseNHEOff+uint64(u+1)*8, 8)
			nu := lg.NHE.Neighbors(u)
			triangles += mergeJoin(m, nv, baseNHENbr, nheOff[v], nu, baseNHENbr, nheOff[u], 4)
		}
	}

	return triangles
}

// mergeJoin16 is the 16-bit HE variant of the instrumented merge.
func mergeJoin16(m refSink, a []uint16, aOff int64, b []uint16, bOff int64) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		m.load(baseHENbr+uint64(aOff+int64(i))*2, 2)
		m.load(baseHENbr+uint64(bOff+int64(j))*2, 2)
		less := a[i] < b[j]
		m.branch(siteMergeLess, less)
		switch {
		case less:
			i++
		case a[i] > b[j]:
			m.branch(siteMergeEq, false)
			j++
		default:
			m.branch(siteMergeEq, true)
			n++
			m.addOp()
			i++
			j++
		}
	}
	return n
}

// H2HProfile replays phase 1's H2H probe stream into a cacheline
// profiler, producing the Fig 9 data: how concentrated the random
// H2H accesses are.
func H2HProfile(lg *core.LotusGraph) *hwsim.LineProfiler {
	p := hwsim.NewLineProfiler(lg.H2H.NumCachelines())
	n := lg.NumVertices()
	for v := 0; v < n; v++ {
		nv := lg.HE.Neighbors(uint32(v))
		for i := 1; i < len(nv); i++ {
			h1 := uint32(nv[i])
			for j := 0; j < i; j++ {
				p.Touch(bitarray.Cacheline(h1, uint32(nv[j])))
			}
		}
	}
	return p
}

// Compare runs both instrumented kernels on the same graph and
// returns (forward, lotus) events — one Fig 4/5 bar pair.
func Compare(g *graph.Graph, opt core.Options, cfg hwsim.MachineConfig) (Events, Events) {
	fwd := InstrumentedForward(g, cfg)
	lg := core.Preprocess(g, opt)
	lot := InstrumentedLotus(lg, cfg)
	return fwd, lot
}

// localitySink feeds the reference stream's cacheline sequence into
// an exact reuse-distance profiler (Mattson stack analysis), ignoring
// branch events.
type localitySink struct{ p *locality.Profiler }

func (s localitySink) load(addr uint64, size int) {
	first := addr >> 6
	last := (addr + uint64(size) - 1) >> 6
	for l := first; l <= last; l++ {
		s.p.Touch(l)
	}
}

func (s localitySink) branch(uint64, bool) {}
func (s localitySink) addOp()              {}

// ForwardMRC replays the Forward kernel into a reuse-distance
// profiler and returns the LRU miss ratio at each capacity (given in
// cachelines). A single replay yields the whole curve.
func ForwardMRC(g *graph.Graph, capacities []int) []float64 {
	ra := reorder.DegreeOrder(g)
	og := g.Relabel(ra).Orient()
	s := localitySink{p: locality.NewProfiler()}
	runForward(og, s)
	return s.p.MRC(capacities)
}

// LotusMRC replays the LOTUS kernel into a reuse-distance profiler
// and returns the LRU miss ratio at each capacity (in cachelines).
func LotusMRC(lg *core.LotusGraph, capacities []int) []float64 {
	s := localitySink{p: locality.NewProfiler()}
	runLotus(lg, s)
	return s.p.MRC(capacities)
}
