package engine

import (
	"context"
	"strings"
	"testing"

	"lotustc/internal/core"
	"lotustc/internal/gen"
)

// TestRunWithPreparedStructure covers the serving-cache injection
// path: a preprocessed p = 1 grid handed through Params.Prepared must
// produce the same count as a cold run, report a zero-length
// preprocess phase, and flag the skip in the metrics snapshot.
func TestRunWithPreparedStructure(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	cold, err := Run(context.Background(), g, Spec{Algorithm: "lotus"})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := core.TryPreprocess(g, core.Options{Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), g, Spec{
		Algorithm:      "lotus",
		CollectMetrics: true,
		Params:         Params{Prepared: gr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Triangles != cold.Triangles {
		t.Fatalf("prepared run counted %d, cold run %d", warm.Triangles, cold.Triangles)
	}
	if d := warm.Phase(PhasePreprocess); d != 0 {
		t.Fatalf("prepared run reported a %v preprocess phase, want 0", d)
	}
	if warm.Metrics["preprocess.cached"] != 1 {
		t.Fatalf("preprocess.cached = %d, want 1", warm.Metrics["preprocess.cached"])
	}
}

// TestRunPreparedVertexMismatch: injecting a structure built from a
// different graph must be an error, not a silent wrong answer.
func TestRunPreparedVertexMismatch(t *testing.T) {
	small := gen.Complete(8)
	gr, err := core.TryPreprocess(small, core.Options{Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	big := gen.Complete(16)
	_, err = Run(context.Background(), big, Spec{
		Algorithm: "lotus",
		Params:    Params{Prepared: gr},
	})
	if err == nil {
		t.Fatal("vertex-count mismatch accepted")
	}
	if !strings.Contains(err.Error(), "vertices") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}
}
