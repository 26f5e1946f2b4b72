package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// monolithic runs the reference count and returns its result.
func monolithic(t *testing.T, g *graph.Graph, hubCount int) *Result {
	t.Helper()
	lg, err := TryPreprocess(g, Options{HubCount: hubCount})
	if err != nil {
		t.Fatalf("monolithic preprocess: %v", err)
	}
	return lg.Count(sched.NewPool(0))
}

// assertSameCounts compares a sharded result against the monolithic
// reference, class by class.
func assertSameCounts(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Total != want.Total || got.HHH != want.HHH || got.HHN != want.HHN ||
		got.HNN != want.HNN || got.NNN != want.NNN {
		t.Fatalf("%s: sharded {total %d HHH %d HHN %d HNN %d NNN %d} != monolithic {total %d HHH %d HHN %d HNN %d NNN %d}",
			label, got.Total, got.HHH, got.HHN, got.HNN, got.NNN,
			want.Total, want.HHH, want.HHN, want.HNN, want.NNN)
	}
}

// corpus returns the equivalence test graphs: degree-skewed
// generators, regular shapes, and degenerate shapes (no triangles,
// all-hub cliques).
func corpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat-9":      gen.RMAT(gen.DefaultRMAT(9, 8, 42)),
		"rmat-10":     gen.RMAT(gen.DefaultRMAT(10, 16, 7)),
		"chunglu":     gen.ChungLu(gen.ChungLuParams{N: 600, M: 3000, Gamma: 2.1, Seed: 3}),
		"complete-50": gen.Complete(50),
		"hub-spokes":  gen.HubAndSpokes(16, 500, 3, 5),
		"planted":     gen.PlantedTriangles(40, 100),
		"star":        gen.Star(100),
		"path":        gen.Path(64),
		"triangle":    gen.Complete(3),
		"single-edge": graph.FromEdges([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{}),
		"empty-ish":   gen.Ring(5),
		"bipartite":   gen.CompleteBipartite(10, 12),
	}
}

// TestShardEquivalence is the correctness bar of the sharded path:
// for every corpus graph, every grid size p in {1,2,3,4} and several
// hub counts (including ones that make the hub range straddle block
// boundaries), the sharded count must match the monolithic count bit
// for bit, per class.
func TestShardEquivalence(t *testing.T) {
	pool := sched.NewPool(0)
	for name, g := range corpus() {
		n := g.NumVertices()
		for _, hubs := range []int{0, 7, n / 2} {
			want := monolithic(t, g, hubs)
			for p := 1; p <= 4; p++ {
				gr, err := TryPreprocess(g, Options{Grid: p, HubCount: hubs})
				if err != nil {
					t.Fatalf("%s hubs=%d p=%d: TryPreprocess: %v", name, hubs, p, err)
				}
				label := fmt.Sprintf("%s hubs=%d p=%d", name, hubs, p)
				assertSameCounts(t, label, want, gr.CountWithOptions(pool, CountOptions{}))
				// The forced kernels must agree too (auto is covered
				// above; word and scalar exercise both probe paths on
				// every row).
				assertSameCounts(t, label+" word", want,
					gr.CountWithOptions(pool, CountOptions{Phase1Kernel: Phase1Word, Intersect: IntersectMerge}))
				assertSameCounts(t, label+" scalar", want,
					gr.CountWithOptions(pool, CountOptions{Phase1Kernel: Phase1Scalar}))
			}
		}
	}
}

// TestShardEquivalenceAtScale is the race-enabled CI gate (`make
// check` runs this package with -race): sharded vs monolithic at
// R-MAT scale 12-13 across grid sizes. -short drops to scale 10 so
// the ordinary race pass stays fast.
func TestShardEquivalenceAtScale(t *testing.T) {
	scales := []uint{12, 13}
	if testing.Short() {
		scales = []uint{10}
	}
	pool := sched.NewPool(0)
	for _, scale := range scales {
		g := gen.RMAT(gen.DefaultRMAT(scale, 16, 1))
		want := monolithic(t, g, 0)
		for _, p := range []int{1, 2, 4} {
			gr, err := TryPreprocess(g, Options{Grid: p})
			if err != nil {
				t.Fatalf("scale %d p=%d: TryPreprocess: %v", scale, p, err)
			}
			got := gr.CountWithOptions(pool, CountOptions{})
			assertSameCounts(t, fmt.Sprintf("scale %d p=%d", scale, p), want, got)
		}
	}
}

// TestShardRowsMatchMonolithic checks the structural claim the
// equivalence rests on: every shard row (HE, NHE, H2H) is literally
// the monolithic structure's row for that vertex, and every shard
// passes Validate. It sweeps the corpus at hub counts 1, 64 and |V|
// (clamped like any other) and p in {1, 2, 4}; at p=1 the flat and the
// sharded build run the same walk over the same range.
func TestShardRowsMatchMonolithic(t *testing.T) {
	for name, g := range corpus() {
		for _, hubs := range []int{1, 64, g.NumVertices()} {
			lg, err := TryPreprocess(g, Options{HubCount: hubs})
			if err != nil {
				t.Fatalf("%s hubs=%d: preprocess: %v", name, hubs, err)
			}
			for _, p := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s hubs=%d p=%d", name, hubs, p)
				gr, err := TryPreprocess(g, Options{Grid: p, HubCount: hubs})
				if err != nil {
					t.Fatalf("%s: TryPreprocess: %v", label, err)
				}
				if gr.HubCount != lg.HubCount {
					t.Fatalf("%s: grid hub count %d != monolithic %d", label, gr.HubCount, lg.HubCount)
				}
				for b, s := range gr.Shards {
					if err := s.Validate(); err != nil {
						t.Fatalf("%s shard %d: %v", label, b, err)
					}
					for v := s.Range.Lo; v < s.Range.Hi; v++ {
						if !slices.Equal(s.HENeighbors(v), lg.Shards[0].HE.Neighbors(v)) {
							t.Fatalf("%s shard %d vertex %d: HE row %v != %v",
								label, b, v, s.HENeighbors(v), lg.Shards[0].HE.Neighbors(v))
						}
						if !slices.Equal(s.NHENeighbors(v), lg.Shards[0].NHE.Neighbors(v)) {
							t.Fatalf("%s shard %d vertex %d: NHE row %v != %v",
								label, b, v, s.NHENeighbors(v), lg.Shards[0].NHE.Neighbors(v))
						}
						for h2 := uint32(0); h2 < v && v < gr.HubCount; h2++ {
							if s.H2H.IsSet(v, h2) != lg.Shards[0].H2H.IsSet(v, h2) {
								t.Fatalf("%s shard %d: H2H bit (%d,%d) disagrees with monolithic", label, b, v, h2)
							}
						}
					}
				}
			}
		}
	}
}

// TestEveryTriangleExactlyOneTriple is the grid's property test: on
// random degree-skewed graphs, for p in {1,2,3,4}, every triangle is
// counted by exactly one block triple. Triangles are enumerated brute
// force in relabeled ID space, each is assigned to the unique triple
// (block(z), block(y), block(x)), and the per-triple expectation must
// match exactly what countBlocks counts over each listed triple
// alone — a double-count or a drop shifts at least one triple's
// total.
func TestEveryTriangleExactlyOneTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 8; round++ {
		// Degree-skewed R-MAT-style graph, small enough to brute force.
		scale := uint(5 + round%3)
		g := gen.RMAT(gen.RMATParams{
			Scale: scale, EdgeFactor: 4 + rng.Intn(8), Seed: rng.Int63(),
			A: 0.57, B: 0.19, C: 0.19,
		})
		n := g.NumVertices()
		for _, hubs := range []int{0, 5, n / 2} {
			for p := 1; p <= 4; p++ {
				gr, err := TryPreprocess(g, Options{Grid: p, HubCount: hubs})
				if err != nil {
					t.Fatalf("TryPreprocess: %v", err)
				}
				pool := sched.NewPool(0)
				res := gr.CountWithOptions(pool, CountOptions{})

				// Brute-force: adjacency in relabeled IDs, each
				// triangle z < y < x assigned to its unique triple.
				adj := make(map[uint64]bool)
				nbr := make([][]uint32, n)
				for vOld := 0; vOld < n; vOld++ {
					v := gr.Relabeling[vOld]
					for _, uOld := range g.Neighbors(uint32(vOld)) {
						u := gr.Relabeling[uOld]
						if u < v {
							nbr[v] = append(nbr[v], u)
							adj[uint64(v)<<32|uint64(u)] = true
						}
					}
				}
				blockOf := func(v uint32) int {
					for b, r := range gr.Ranges {
						if r.Contains(v) {
							return b
						}
					}
					t.Fatalf("vertex %d in no range", v)
					return -1
				}
				want := map[[3]int]uint64{}
				var total uint64
				for x := uint32(0); x < uint32(n); x++ {
					ys := nbr[x]
					for a := 0; a < len(ys); a++ {
						for b := a + 1; b < len(ys); b++ {
							y, z := ys[a], ys[b]
							if y < z {
								y, z = z, y
							}
							if adj[uint64(y)<<32|uint64(z)] {
								want[[3]int{blockOf(z), blockOf(y), blockOf(x)}]++
								total++
							}
						}
					}
				}
				if res.Total != total {
					t.Fatalf("p=%d hubs=%d: sharded total %d != brute force %d", p, hubs, res.Total, total)
				}
				// Each listed triple counted on its own.
				got := map[[3]int]uint64{}
				for _, b := range gr.blocks() {
					if n := countBlocks(pool, gr.Shards, []block{b}, CountOptions{}).Total; n > 0 {
						got[[3]int{b.I, b.J, b.K}] = n
					}
				}
				if len(got) != len(want) {
					t.Fatalf("p=%d hubs=%d: %d live triples, brute force says %d (got %v want %v)",
						p, hubs, len(got), len(want), got, want)
				}
				for key, w := range want {
					if got[key] != w {
						t.Fatalf("p=%d hubs=%d: triple %v counted %d triangles, brute force says %d",
							p, hubs, key, got[key], w)
					}
				}
			}
		}
	}
}

// TestBuildValidation covers the input contract: nil and oriented
// graphs are rejected with the core sentinels, out-of-range grids
// fail, and Assemble refuses shards that contradict the plan.
func TestBuildValidation(t *testing.T) {
	if _, err := TryPreprocess(nil, Options{}); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("nil graph: got %v, want ErrNilGraph", err)
	}
	g := gen.Complete(10)
	og := g.Orient()
	if _, err := TryPreprocess(og, Options{}); !errors.Is(err, ErrOriented) {
		t.Fatalf("oriented graph: got %v, want ErrOriented", err)
	}
	if _, err := TryPreprocess(g, Options{Grid: -1}); err == nil {
		t.Fatal("negative grid accepted")
	}
	if _, err := TryPreprocess(g, Options{Grid: MaxGrid + 1}); err == nil {
		t.Fatal("oversized grid accepted")
	}

	pl, err := NewPlan(g, Options{Grid: 2})
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	s0, err := pl.BuildShard(g, 0, nil, nil)
	if err != nil {
		t.Fatalf("BuildShard: %v", err)
	}
	if _, err := Assemble(pl, []*LotusShard{s0}); err == nil {
		t.Fatal("Assemble accepted a short shard list")
	}
	if _, err := Assemble(pl, []*LotusShard{s0, s0}); err == nil {
		t.Fatal("Assemble accepted a shard under the wrong block")
	}
	if _, err := pl.BuildShard(g, 2, nil, nil); err == nil {
		t.Fatal("BuildShard accepted an out-of-range block")
	}
}

// TestBuildPublishesRelabelTime: a grid build reports the relabel part
// of the build under preprocess.relabel.ns, bounded by the whole grid
// build's preprocess.ns, times both walk passes, and publishes the
// flat build's lotus.* structure counters summed over its shards.
func TestBuildPublishesRelabelTime(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	m := obs.New()
	if _, err := TryPreprocess(g, Options{Grid: 2, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	rl, pre := m.Get(obs.PreprocessRelabelNS), m.Get(obs.PreprocessNS)
	if rl <= 0 || rl > pre {
		t.Fatalf("%s = %d, want in (0, %s = %d]", obs.PreprocessRelabelNS, rl, obs.PreprocessNS, pre)
	}
	for _, name := range []string{obs.PreprocessWalkCountNS, obs.PreprocessWalkFillNS} {
		if m.Get(name) <= 0 {
			t.Errorf("%s = %d, want > 0", name, m.Get(name))
		}
	}
	flat := obs.New()
	Preprocess(g, Options{Metrics: flat})
	for _, name := range []string{"lotus.hubs", "lotus.he_edges", "lotus.nhe_edges", "lotus.h2h_bits"} {
		if got, want := m.Get(name), flat.Get(name); got != want || want <= 0 {
			t.Errorf("%s = %d over the grid, %d flat", name, got, want)
		}
	}
}

// TestShardCancellation checks the cooperative-cancellation contract
// through the pool: a cancelled count stops promptly and the partial
// totals are discarded by the engine layer (here: we only assert the
// sweep returns; the engine tests assert no partial results).
func TestShardCancellation(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 16, 2))
	gr, err := TryPreprocess(g, Options{Grid: 3})
	if err != nil {
		t.Fatalf("TryPreprocess: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool := sched.NewPool(0).Bind(ctx)
	defer pool.Release()
	cancel()
	start := time.Now()
	gr.CountWithOptions(pool, CountOptions{})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled count took %v", d)
	}
}

// TestCancelledBuild: a build on a cancelled pool is an error from
// TryPreprocess and nil from Preprocess, at p = 1 and on a grid, while
// an invalid input still panics in Preprocess.
func TestCancelledBuild(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := sched.NewPool(2).Bind(ctx)
	defer pool.Release()
	for !pool.Cancelled() { // Bind observes the context asynchronously
		runtime.Gosched()
	}
	for _, p := range []int{1, 3} {
		if lg, err := TryPreprocess(g, Options{Pool: pool, Grid: p}); err == nil || lg != nil {
			t.Fatalf("p=%d: TryPreprocess on a cancelled pool = %v, %v; want nil and an error", p, lg, err)
		}
		if lg := Preprocess(g, Options{Pool: pool, Grid: p}); lg != nil {
			t.Fatalf("p=%d: Preprocess on a cancelled pool returned a structure", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Preprocess accepted an oriented graph")
		}
	}()
	Preprocess(g.Orient(), Options{Pool: pool})
}

// TestFlatRejectsGrid: the flat readers' one shard exists only at
// P = 1; a grid is an error from TryFlat and a panic from Flat.
func TestFlatRejectsGrid(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	lg := Preprocess(g, Options{})
	if s, err := lg.TryFlat(); err != nil || s != lg.Shards[0] {
		t.Fatalf("TryFlat at P = 1: %v, %v", s, err)
	}
	gr := Preprocess(g, Options{Grid: 2})
	if _, err := gr.TryFlat(); err == nil {
		t.Fatal("TryFlat accepted a 2-way grid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Flat returned a shard of a 2-way grid")
		}
	}()
	gr.Flat()
}
