package engine

import (
	"context"
	"errors"
	"maps"
	"slices"
	"testing"

	"lotustc/internal/gen"
	"lotustc/internal/shard"
)

// TestShardedMatchesLotus: the sharded kernel must report the exact
// totals and class split of the flat kernel for every grid size, and
// the same preprocess, phase 1, HNN and NNN phases. At Shards: 1 the
// two names run one kernel over one structure, so the phase names,
// the totals, the classes and the metric names must all be identical.
func TestShardedMatchesLotus(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 16, 5))
	want, err := Run(context.Background(), g, Spec{Algorithm: "lotus", CollectMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(context.Background(), g, Spec{Algorithm: "lotus-sharded", CollectMetrics: true, Params: Params{Shards: 1}})
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
			Algorithm: "lotus-sharded",
			Params:    Params{Shards: p},
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
	}
}

// TestShardedPreparedGrid: a prepared grid skips the build (zero
// preprocess phase) and still produces the right count; mismatched
// grids are rejected with ErrPreparedMismatch.
func TestShardedPreparedGrid(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	gr, err := shard.Build(g, shard.Options{Grid: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), g, Spec{Algorithm: "lotus"})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), g, Spec{
		Algorithm:      "lotus-sharded",
		CollectMetrics: true,
		Params:         Params{Prepared: gr},
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
		Algorithm: "lotus-sharded",
		Params:    Params{Prepared: gr},
	})
	if !errors.Is(err, ErrPreparedMismatch) {
		t.Fatalf("foreign grid: got %v, want ErrPreparedMismatch", err)
	}

	// Right graph, contradictory grid dimension.
	_, err = Run(context.Background(), g, Spec{
		Algorithm: "lotus-sharded",
		Params:    Params{Prepared: gr, Shards: 2},
	})
	if !errors.Is(err, ErrPreparedMismatch) {
		t.Fatalf("wrong dimension: got %v, want ErrPreparedMismatch", err)
	}
	// "lotus" counts over a 1-way grid only.
	_, err = Run(context.Background(), g, Spec{
		Algorithm: "lotus",
		Params:    Params{Prepared: gr},
	})
	if !errors.Is(err, ErrPreparedMismatch) {
		t.Fatalf("3-way grid under lotus: got %v, want ErrPreparedMismatch", err)
	}
}

// TestPreparedStructureMismatchTyped: the flat kernel's long-standing
// vertex-count cross-check is now a typed error serve can match on.
func TestPreparedStructureMismatchTyped(t *testing.T) {
	gr, err := shard.Build(gen.Complete(10), shard.Options{Grid: 1})
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
	for _, p := range []int{-1, shard.MaxGrid + 1} {
		if _, err := Run(context.Background(), g, Spec{
			Algorithm: "lotus-sharded",
			Params:    Params{Shards: p},
		}); err == nil {
			t.Fatalf("Shards=%d accepted", p)
		}
	}
}

// TestShardedCapabilities: the registry entry carries the new tags.
func TestShardedCapabilities(t *testing.T) {
	reg, err := Lookup("lotus-sharded")
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Caps.Shardable || !reg.Caps.Cancellable {
		t.Fatalf("lotus-sharded capabilities = %+v, want Shardable and Cancellable", reg.Caps)
	}
	if reg.Caps.Streaming {
		t.Fatalf("lotus-sharded must not claim Streaming: %+v", reg.Caps)
	}
	lotusReg, err := Lookup("lotus")
	if err != nil {
		t.Fatal(err)
	}
	if !lotusReg.Caps.Streaming || !lotusReg.Caps.Cancellable {
		t.Fatalf("lotus capabilities = %+v, want Streaming and Cancellable", lotusReg.Caps)
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
