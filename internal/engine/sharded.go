package engine

import (
	"fmt"

	"lotustc/internal/shard"
)

// lotusShardedKernel runs the sharded 2D LOTUS path: the relabeled ID
// space is partitioned into a Params.Shards-way grid, one LOTUS
// structure is built per block, and triangles are counted by block
// triple through the same three phases and counting tail as "lotus"
// (countLotus). A Params.PreparedGrid (a serving cache hit) skips the
// build entirely. Totals and the per-class split are bit-identical to
// the "lotus" kernel's by construction — the grid shares the
// monolithic relabeling and hub set, so every triangle keeps its apex
// and class.
func lotusShardedKernel(t *Task) (uint64, error) {
	p := t.Params.Shards
	if p == 0 {
		p = shard.DefaultGrid
	}
	if p < 1 || p > shard.MaxGrid {
		return 0, fmt.Errorf("engine: shard grid %d out of range [1, %d]", p, shard.MaxGrid)
	}
	gr := t.Params.PreparedGrid
	if gr != nil {
		if gr.NumVertices() != t.Graph.NumVertices() {
			return 0, fmt.Errorf("engine: prepared shard grid has %d vertices, graph has %d: %w",
				gr.NumVertices(), t.Graph.NumVertices(), ErrPreparedMismatch)
		}
		if t.Params.Shards > 0 && gr.P != t.Params.Shards {
			return 0, fmt.Errorf("engine: prepared shard grid is %d-way, run asked for %d: %w",
				gr.P, t.Params.Shards, ErrPreparedMismatch)
		}
		t.Report.AddPhase(PhasePreprocess, 0)
		t.Metrics().Set("preprocess.cached", 1)
	} else {
		var err error
		gr, err = shard.Build(t.Graph, shard.Options{
			Grid:          p,
			HubCount:      t.Params.HubCount,
			FrontFraction: t.Params.FrontFraction,
			Pool:          t.Pool,
			Metrics:       t.Metrics(),
		})
		if err != nil {
			return 0, err
		}
		t.Report.AddPhase(PhasePreprocess, gr.PreprocessTime)
	}
	if err := t.Err(); err != nil {
		return 0, err
	}
	return countLotus(t, gr.Count)
}
