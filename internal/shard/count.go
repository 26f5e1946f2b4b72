package shard

import (
	"lotustc/internal/core"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// Count runs the grid's triangle count: it lists every live block
// triple (i <= j <= k) and hands them to core.CountBlocks, which runs
// the three phases of Algorithm 3 over them; at P = 1 the one triple
// (0, 0, 0) is the flat count. For a triple, apexes x
// stream from shard k's rows; phase 1 probes shard j's H2H rows with
// the apex's hub pairs (h1 in R_j, h2 in R_i), HNN probes shard j's HE
// rows against the apex's R_i hubs, and NNN shard j's NHE rows
// against its R_i non-hub neighbours. Each triangle z < y < x is
// counted exactly once: by the unique triple (block(z), block(y),
// block(x)), at the same apex and with the same hubness pattern as
// the flat count, which is why the per-class totals match bit for
// bit. opt.Metrics also receives shard.triples, the live triples.
func (gr *Grid) Count(pool *sched.Pool, opt core.CountOptions) *core.Result {
	blocks := gr.blocks()
	opt.Metrics.Add(obs.ShardTriples, int64(len(blocks)))
	return core.CountBlocks(pool, gr.Shards, blocks, opt)
}

// blocks lists the block triples i <= j <= k that can hold a
// triangle (core.Block.Live), in enumeration order.
func (gr *Grid) blocks() []core.Block {
	var bs []core.Block
	for k := 0; k < gr.P; k++ {
		for j := 0; j <= k; j++ {
			for i := 0; i <= j; i++ {
				if b := (core.Block{I: i, J: j, K: k}); b.Live(gr.Shards) {
					bs = append(bs, b)
				}
			}
		}
	}
	return bs
}
