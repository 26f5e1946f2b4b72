package engine

import (
	"context"
	"errors"
	"maps"
	"slices"
	"testing"

	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// TestShardedMatchesLotus: lotus over a p-way grid must report the
// exact totals and class split of the flat count for every grid size,
// and the same preprocess, phase 1, HNN and NNN phases. Shards 0 and 1
// both mean the flat structure, so the phase names, the totals, the
// classes and the metric names must all be identical.
func TestShardedMatchesLotus(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 16, 5))
	want, err := Run(context.Background(), g, Spec{Algorithm: "lotus", CollectMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(context.Background(), g, Spec{Algorithm: "lotus", CollectMetrics: true, Params: Params{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	phaseNames := func(r *Report) []string {
		var names []string
		for _, p := range r.Phases {
			names = append(names, p.Name)
		}
		return names
	}
	if !slices.Equal(phaseNames(one), phaseNames(want)) {
		t.Fatalf("p=1 phases %v, lotus phases %v", phaseNames(one), phaseNames(want))
	}
	if one.Triangles != want.Triangles || one.HHH != want.HHH || one.HHN != want.HHN ||
		one.HNN != want.HNN || one.NNN != want.NNN {
		t.Fatalf("p=1 report %+v disagrees with lotus %+v", one, want)
	}
	if a, b := slices.Sorted(maps.Keys(one.Metrics)), slices.Sorted(maps.Keys(want.Metrics)); !slices.Equal(a, b) {
		t.Fatalf("p=1 metric names %v, lotus metric names %v", a, b)
	}
	for _, p := range []int{1, 2, 3, 4} {
		got, err := Run(context.Background(), g, Spec{
			Algorithm:      "lotus",
			CollectMetrics: true,
			Params:         Params{Shards: p},
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got.Triangles != want.Triangles ||
			got.HHH != want.HHH || got.HHN != want.HHN ||
			got.HNN != want.HNN || got.NNN != want.NNN {
			t.Fatalf("p=%d: sharded report %+v disagrees with lotus %+v", p, got, want)
		}
		for _, ph := range []string{PhasePreprocess, PhaseHub, PhaseHNN, PhaseNNN} {
			if got.Phase(ph) <= 0 {
				t.Fatalf("p=%d: sharded run missing the %s phase time: %v", p, ph, got.Phases)
			}
		}
		if got.Phase(PhaseCount) != 0 {
			t.Fatalf("p=%d: sharded run still reports a single count phase: %v", p, got.Phases)
		}
		if got.Metrics["shard.blocks"] != int64(p) {
			t.Fatalf("p=%d: counted over a %d-block grid", p, got.Metrics["shard.blocks"])
		}
	}
}

// TestAutoPassesShardsToLotus: when auto routes to lotus, the grid
// dimension rides along, and the count and class split stay the flat
// count's.
func TestAutoPassesShardsToLotus(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 2))
	want, err := Run(context.Background(), g, Spec{Algorithm: "lotus"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), g, Spec{Algorithm: "auto", CollectMetrics: true, Params: Params{Shards: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Decision == nil || got.Decision.Algorithm != "lotus" {
		t.Fatalf("auto did not route the small R-MAT graph to lotus: %+v", got.Decision)
	}
	if got.Metrics["shard.blocks"] != 3 {
		t.Fatalf("auto-routed lotus counted over a %d-block grid, want 3", got.Metrics["shard.blocks"])
	}
	if got.Triangles != want.Triangles || got.HHH != want.HHH || got.HHN != want.HHN ||
		got.HNN != want.HNN || got.NNN != want.NNN {
		t.Fatalf("auto at Shards 3 %+v disagrees with flat lotus %+v", got, want)
	}
}

// TestShardedPreparedGrid: a prepared grid skips the build (zero
// preprocess phase) and still produces the right count; a grid of
// another graph, or whose dimension is not max(Shards, 1), is rejected
// with ErrPreparedMismatch.
func TestShardedPreparedGrid(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	gr, err := core.TryPreprocess(g, core.Options{Grid: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), g, Spec{Algorithm: "lotus"})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), g, Spec{
		Algorithm:      "lotus",
		CollectMetrics: true,
		Params:         Params{Prepared: gr, Shards: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triangles != want.Triangles {
		t.Fatalf("prepared-grid run counted %d, want %d", rep.Triangles, want.Triangles)
	}
	if rep.Phase(PhasePreprocess) != 0 {
		t.Fatalf("prepared-grid run recorded preprocess time %v, want 0", rep.Phase(PhasePreprocess))
	}
	if rep.Metrics["preprocess.cached"] != 1 {
		t.Fatalf("prepared-grid run did not record the cache-hit metric: %v", rep.Metrics)
	}

	// Wrong graph: vertex-count cross-check fires.
	other := gen.Complete(12)
	_, err = Run(context.Background(), other, Spec{
		Algorithm: "lotus",
		Params:    Params{Prepared: gr, Shards: 3},
	})
	if !errors.Is(err, ErrPreparedMismatch) {
		t.Fatalf("foreign grid: got %v, want ErrPreparedMismatch", err)
	}

	// Right graph, contradictory grid dimension: 0 and 1 both ask
	// for the flat p = 1 grid.
	for _, p := range []int{0, 1, 2} {
		_, err = Run(context.Background(), g, Spec{
			Algorithm: "lotus",
			Params:    Params{Prepared: gr, Shards: p},
		})
		if !errors.Is(err, ErrPreparedMismatch) {
			t.Fatalf("3-way grid at Shards %d: got %v, want ErrPreparedMismatch", p, err)
		}
	}
}

// TestPreparedStructureMismatchTyped: the flat kernel's long-standing
// vertex-count cross-check is now a typed error serve can match on.
func TestPreparedStructureMismatchTyped(t *testing.T) {
	gr, err := core.TryPreprocess(gen.Complete(10), core.Options{Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), gen.Complete(12), Spec{
		Algorithm: "lotus",
		Params:    Params{Prepared: gr},
	})
	if !errors.Is(err, ErrPreparedMismatch) {
		t.Fatalf("got %v, want ErrPreparedMismatch", err)
	}
}

// TestShardedOutOfRangeGrid rejects absurd grid dimensions up front.
func TestShardedOutOfRangeGrid(t *testing.T) {
	g := gen.Complete(8)
	for _, p := range []int{-1, core.MaxGrid + 1} {
		if _, err := Run(context.Background(), g, Spec{
			Algorithm: "lotus",
			Params:    Params{Shards: p},
		}); err == nil {
			t.Fatalf("Shards=%d accepted", p)
		}
	}
}

// TestShardedCapabilities: the grid dimension is a parameter of the
// one LOTUS registration, which carries the shardable tag; the retired
// "lotus-sharded" name is unknown.
func TestShardedCapabilities(t *testing.T) {
	if _, err := Lookup("lotus-sharded"); err == nil {
		t.Fatal("lotus-sharded is still registered")
	}
	lotusReg, err := Lookup("lotus")
	if err != nil {
		t.Fatal(err)
	}
	if !lotusReg.Caps.Shardable || !lotusReg.Caps.Streaming || !lotusReg.Caps.Cancellable {
		t.Fatalf("lotus capabilities = %+v, want Shardable, Streaming and Cancellable", lotusReg.Caps)
	}
	for _, name := range builtins {
		if reg, _ := Lookup(name); name != "lotus" && reg.Caps.Shardable {
			t.Fatalf("%s claims Shardable: only lotus counts over a shard grid", name)
		}
	}
	// Registrations preserves registry order and exposes every entry.
	regs := Registrations()
	if len(regs) < len(builtins) {
		t.Fatalf("Registrations returned %d entries, want at least %d", len(regs), len(builtins))
	}
	for i, name := range builtins {
		if regs[i].Name != name {
			t.Fatalf("Registrations()[%d] = %q, want %q (registration order)", i, regs[i].Name, name)
		}
	}
}

// TestDirectCoreMatchesEngine: the direct core calls (TryPreprocess,
// then CountWithOptions) at Grid p publish the same metric names,
// totals and class split as engine.Run("lotus") at Shards p, so a
// layer-by-layer timing of those calls times the engine's own code.
// The engine's own run bookkeeping (graph.edges, graph.vertices,
// run.workers) is the only thing a direct run does not publish.
func TestDirectCoreMatchesEngine(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 16, 5))
	for _, p := range []int{1, 2, 3} {
		rep, err := Run(context.Background(), g, Spec{Algorithm: "lotus", Workers: 2, CollectMetrics: true, Params: Params{Shards: p}})
		if err != nil {
			t.Fatalf("p=%d: engine: %v", p, err)
		}
		m := obs.New()
		pool := sched.NewPool(2)
		lg, err := core.TryPreprocess(g, core.Options{Pool: pool, Metrics: m, Grid: p})
		if err != nil {
			t.Fatalf("p=%d: TryPreprocess: %v", p, err)
		}
		res := lg.CountWithOptions(pool, core.CountOptions{Metrics: m})
		if res.Total != rep.Triangles || res.HHH != rep.HHH || res.HHN != rep.HHN || res.HNN != rep.HNN || res.NNN != rep.NNN {
			t.Fatalf("p=%d: direct %+v, engine %+v", p, res, rep)
		}
		direct := m.Snapshot()
		for _, name := range []string{"graph.edges", "graph.vertices", "run.workers"} {
			direct[name] = 0
		}
		if a, b := slices.Sorted(maps.Keys(direct)), slices.Sorted(maps.Keys(rep.Metrics)); !slices.Equal(a, b) {
			t.Fatalf("p=%d: direct metric names %v, engine metric names %v", p, a, b)
		}
		if got := m.Get(obs.ShardBlocks); got != int64(p) || rep.Metrics[obs.ShardTriples] != m.Get(obs.ShardTriples) {
			t.Fatalf("p=%d: direct shard.blocks %d, shard.triples %d; engine %d, %d",
				p, got, m.Get(obs.ShardTriples), rep.Metrics[obs.ShardBlocks], rep.Metrics[obs.ShardTriples])
		}
	}
}
