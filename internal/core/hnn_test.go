package core

import (
	"fmt"
	"strings"
	"testing"

	"lotustc/internal/gen"
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
// HNN kernel or the vertex-bitmap NNN kernel — flat and sharded at
// p = 1..4, each under both NNN kernels (bitmap and merge), and the
// per-vertex count — against a brute-force oracle (totals, class
// split, per-vertex counts). It sweeps the corpus plus graphs of 63,
// 64, 65 and 129 vertices (vertex-bitmap word boundaries), hub counts
// straddling hub-bitmap word boundaries up to the 2^16 cap (clamped
// to |V|), and 1, 2 and 4 workers. The flat counts share one
// CountScratch per worker count, so a bitmap left dirty by any count
// (of any graph or hub count) would corrupt a later one; the sharded
// counts share it too. Flat and sharded counts alike must index dense
// HE rows (hnn.dense_rows) on R-MAT at 63 to 65 hubs, where rows of
// two or four hubs are dense, and none on a ring, whose rows hold at
// most two hubs and never two below a non-hub. `make check` runs it
// with -race.
func TestHNNBitmapEquivalence(t *testing.T) {
	scratch := map[int]*CountScratch{}
	for _, w := range []int{1, 2, 4} {
		scratch[w] = NewCountScratch()
	}
	graphs := corpus()
	for i, n := range []int{63, 64, 65, 129} {
		g := gen.ErdosRenyi(n, 6*n, int64(i+1))
		if g.NumVertices() != n {
			t.Fatalf("ErdosRenyi(%d): %d vertices", n, g.NumVertices())
		}
		graphs[fmt.Sprintf("er-%d", n)] = g
	}
	graphs["ring-200"] = gen.Ring(200)
	kernels := []IntersectKernel{IntersectBitmap, IntersectMerge}
	for name, g := range graphs {
		seen := map[int]bool{}
		for _, hubs := range []int{1, 63, 64, 65, 512, 1 << 16} {
			eff := Options{HubCount: hubs}.EffectiveHubCount(g.NumVertices())
			if seen[eff] {
				continue
			}
			seen[eff] = true
			lg, err := TryPreprocess(g, Options{HubCount: hubs})
			if err != nil {
				t.Fatalf("%s hubs=%d: preprocess: %v", name, hubs, err)
			}
			want, wantPerVertex := bruteForceClasses(g, lg.Relabeling, lg.HubCount)
			grids := make([]*LotusGraph, 5)
			for p := 1; p <= 4; p++ {
				if grids[p], err = TryPreprocess(g, Options{Grid: p, HubCount: hubs}); err != nil {
					t.Fatalf("%s hubs=%d p=%d: TryPreprocess: %v", name, hubs, p, err)
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
				// checkDense holds a count's dense-row counters to the
				// graph: R-MAT at 63 to 65 hubs has dense rows, a ring
				// none, and no count probes more rows word-wise than it
				// probes in all.
				checkDense := func(path string, m *obs.Metrics) {
					t.Helper()
					dense, words := m.Get(obs.HNNDenseRows), m.Get(obs.HNNDispatchWords)
					switch {
					case strings.HasPrefix(name, "rmat") && eff >= 63 && eff <= 65 && dense == 0:
						t.Errorf("%s hubs=%d %s: no dense HE rows indexed", name, eff, path)
					case strings.HasPrefix(name, "ring") && dense != 0:
						t.Errorf("%s hubs=%d %s: %d dense HE rows on a ring", name, eff, path, dense)
					case words > m.Get(obs.HNNDispatchBitmap) || (words > 0 && dense == 0):
						t.Errorf("%s hubs=%d %s: %d rows probed word-wise of %d, with %d dense rows",
							name, eff, path, words, m.Get(obs.HNNDispatchBitmap), dense)
					}
				}
				for _, k := range kernels {
					m := obs.New()
					r := lg.CountWithOptions(pool, CountOptions{Scratch: scratch[workers], Intersect: k, Metrics: m})
					check("flat "+k.String(), classCounts{r.Total, r.HHH, r.HHN, r.HNN, r.NNN})
					checkDense("flat "+k.String(), m)
					for p := 1; p <= 4; p++ {
						m := obs.New()
						path := fmt.Sprintf("sharded p=%d %s", p, k)
						r := grids[p].CountWithOptions(pool, CountOptions{Scratch: scratch[workers], Intersect: k, Metrics: m})
						check(path, classCounts{r.Total, r.HHH, r.HHN, r.HNN, r.NNN})
						checkDense(path, m)
						for _, c := range []struct {
							counter   string
							triangles uint64
						}{{obs.HNNDispatchBitmap, want.hnn}, {k.DispatchCounter(), want.nnn}} {
							if rows := m.Get(c.counter); c.triangles > 0 && rows == 0 {
								t.Errorf("%s hubs=%d %s: triangles counted but %s = 0",
									name, eff, path, c.counter)
							}
						}
					}
				}
				var sum uint64
				for v, c := range lg.Shards[0].CountPerVertex(pool) {
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
