package shard

import (
	"fmt"
	"testing"

	"lotustc/internal/core"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// classCounts is a brute-force triangle census split by the number of
// hub corners: HHH (3), HHN (2), HNN (1), NNN (0).
type classCounts struct{ total, hhh, hhn, hnn, nnn uint64 }

// bruteForceClasses enumerates every triangle u < v < w of g by
// adjacency lookup and classifies it by how many corners are hubs,
// where hub(x) is true when x's relabeled ID is below hubCount. It
// also returns each vertex's triangle count, indexed by relabeled ID.
func bruteForceClasses(g *graph.Graph, relabel []uint32, hubCount uint32) (classCounts, []uint64) {
	n := g.NumVertices()
	adj := make(map[uint64]bool)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			adj[uint64(u)<<32|uint64(v)] = true
		}
	}
	var c classCounts
	perVertex := make([]uint64, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if v <= uint32(u) {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w <= v || !adj[uint64(u)<<32|uint64(w)] {
					continue
				}
				hubs := 0
				for _, x := range []uint32{uint32(u), v, w} {
					perVertex[relabel[x]]++
					if relabel[x] < hubCount {
						hubs++
					}
				}
				c.total++
				switch hubs {
				case 3:
					c.hhh++
				case 2:
					c.hhn++
				case 1:
					c.hnn++
				default:
					c.nnn++
				}
			}
		}
	}
	return c, perVertex
}

// TestHNNBitmapEquivalence checks every path that runs the hub-bitmap
// HNN kernel — flat, §7-blocked, fused, sharded at p = 1..4, and the
// per-vertex count — against a brute-force oracle (totals, class
// split, per-vertex counts) across the corpus, hub counts straddling
// bitmap word boundaries up to the 2^16 cap (clamped to |V|), and 1, 2
// and 4 workers. The flat, blocked and fused counts share one CountScratch
// per worker count, so a bitmap left dirty by any count (of any graph
// or hub count) would corrupt a later one. `make check` runs it with
// -race.
func TestHNNBitmapEquivalence(t *testing.T) {
	scratch := map[int]*core.CountScratch{}
	for _, w := range []int{1, 2, 4} {
		scratch[w] = core.NewCountScratch()
	}
	for name, g := range corpus() {
		seen := map[int]bool{}
		for _, hubs := range []int{1, 63, 64, 65, 512, 1 << 16} {
			eff := core.Options{HubCount: hubs}.EffectiveHubCount(g.NumVertices())
			if seen[eff] {
				continue
			}
			seen[eff] = true
			lg, err := core.TryPreprocess(g, core.Options{HubCount: hubs})
			if err != nil {
				t.Fatalf("%s hubs=%d: preprocess: %v", name, hubs, err)
			}
			want, wantPerVertex := bruteForceClasses(g, lg.Relabeling, lg.HubCount)
			grids := make([]*Grid, 5)
			for p := 1; p <= 4; p++ {
				if grids[p], err = Build(g, Options{Grid: p, HubCount: hubs}); err != nil {
					t.Fatalf("%s hubs=%d p=%d: Build: %v", name, hubs, p, err)
				}
			}
			for _, workers := range []int{1, 2, 4} {
				pool := sched.NewPool(workers)
				check := func(path string, got classCounts) {
					t.Helper()
					if got != want {
						t.Errorf("%s hubs=%d workers=%d %s: {total HHH HHN HNN NNN} = %v, brute force %v",
							name, eff, workers, path, got, want)
					}
				}
				for path, opt := range map[string]core.CountOptions{
					"flat":    {},
					"blocked": {HNNBlocks: 4},
					"fused":   {FuseHNNAndNNN: true},
				} {
					opt.Scratch = scratch[workers]
					r := lg.CountWithOptions(pool, opt)
					check(path, classCounts{r.Total, r.HHH, r.HHN, r.HNN, r.NNN})
				}
				for p := 1; p <= 4; p++ {
					m := obs.New()
					r := grids[p].Count(pool, CountOptions{Metrics: m})
					check(fmt.Sprintf("sharded p=%d", p), classCounts{r.Total, r.HHH, r.HHN, r.HNN, r.NNN})
					if rows := m.Get(obs.HNNDispatchBitmap); want.hnn > 0 && rows == 0 {
						t.Errorf("%s hubs=%d p=%d: HNN triangles counted but %s = 0",
							name, eff, p, obs.HNNDispatchBitmap)
					}
				}
				var sum uint64
				for v, c := range lg.CountPerVertex(pool) {
					sum += c
					if c != wantPerVertex[v] {
						t.Errorf("%s hubs=%d workers=%d: vertex %d in %d triangles, brute force %d",
							name, eff, workers, v, c, wantPerVertex[v])
						break
					}
				}
				if sum != 3*want.total {
					t.Errorf("%s hubs=%d workers=%d: per-vertex sum %d, want 3 x %d",
						name, eff, workers, sum, want.total)
				}
			}
		}
	}
}
