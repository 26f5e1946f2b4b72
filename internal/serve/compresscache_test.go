package serve

// Tests for the compressed residency tier and the zero-alloc warm
// path: the lru.add stale-entry regression, oversized-admission
// accounting, the estimateLotusBytes upper-bound contract,
// demote→rehydrate→count equivalence, arena pooling and isolation
// under concurrency, and the AllocsPerRun gates.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
)

// TestLRUAddStaleEntryEvicted is the regression test for the stale
// resident-entry bug: re-adding a key with a value too large to admit
// used to early-return with the OLD value still resident, serving it
// forever. The refusal must evict the predecessor first.
func TestLRUAddStaleEntryEvicted(t *testing.T) {
	c := newLRU(100)
	if _, admitted := c.add("k", "old", 10); !admitted {
		t.Fatal("small value refused")
	}
	evicted, admitted := c.add("k", "new", 1000)
	if admitted {
		t.Fatal("value larger than the budget was admitted")
	}
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1 (the stale entry)", evicted)
	}
	if v, ok := c.get("k"); ok {
		t.Fatalf("stale value %v still resident after oversized re-add", v)
	}
	if c.bytes != 0 {
		t.Fatalf("cache accounts %d bytes after the stale eviction, want 0", c.bytes)
	}
}

// TestAdmitOversizedCounter: a value the budget refuses is still
// served to its waiters but must show up in <name>.admit_oversized —
// previously the drop was silent and /metrics could not tell it from
// an admission.
func TestAdmitOversizedCounter(t *testing.T) {
	met := obs.New()
	c := newBuildCache("c", cacheConfig{maxBytes: 100}, met)
	defer c.shutdown()
	v, _, rel, err := c.getOrBuild(context.Background(), "big", func(context.Context) (any, int64, error) {
		return "payload", 1000, nil
	})
	if err != nil || v != "payload" {
		t.Fatalf("oversized build not served: (%v, %v)", v, err)
	}
	rel()
	if got := met.Get("c.admit_oversized"); got != 1 {
		t.Fatalf("c.admit_oversized = %d, want 1", got)
	}
	if c.peek("big") {
		t.Fatal("oversized value resident despite refusal")
	}
}

// TestCacheCountersSurfacedInMetrics: the admission-outcome counters
// are pre-registered, so a fresh server's /metrics already lists them
// at zero (with the compressed-tier gauges once -compress-cache is
// on) instead of them popping into existence on first increment.
func TestCacheCountersSurfacedInMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{CompressCache: true})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, name := range []string{
		"cache.admit_oversized", "cache.admit_faults",
		"cache.compressed_entries", "cache.demotions", "cache.rehydrations", "cache.pool_hits",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics is missing %q", name)
		}
	}
}

// TestEstimateLotusBytesUpperBound: the sharded-routing estimate must
// never fall below what the flat structure's cache entries — the
// p = 1 plan plus its one shard — actually charge; an under-estimate
// would admit a structure that cannot be resident, so routing would
// under-shard. Checked across the 12-graph corpus and a sweep of hub
// counts.
func TestEstimateLotusBytesUpperBound(t *testing.T) {
	corpus := map[string]*graph.Graph{
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
	for name, g := range corpus {
		for _, hubs := range []int{0, 1, 4, 16, 64, 1000} {
			pl, err := core.NewPlan(g, core.Options{Grid: 1, HubCount: hubs})
			if err != nil {
				t.Fatalf("%s hubs=%d: plan: %v", name, hubs, err)
			}
			sh, err := pl.BuildShard(g, 0, nil, nil)
			if err != nil {
				t.Fatalf("%s hubs=%d: preprocess: %v", name, hubs, err)
			}
			actual := pl.SizeBytes() + sh.TopologyBytes()
			est := estimateLotusBytes(g, hubs)
			if est < actual {
				t.Errorf("%s hubs=%d: estimate %d under-charges actual %d", name, hubs, est, actual)
			}
		}
	}
}

// TestAppendKeyMatchesLegacyFormats pins the zero-alloc key builders
// to the exact strings the fmt.Sprintf versions produced, so cache
// key semantics survive the refactor byte for byte.
func TestAppendKeyMatchesLegacyFormats(t *testing.T) {
	cases := []struct {
		spec GraphSpec
		want string
	}{
		{GraphSpec{Type: "rmat", Scale: 10, EdgeFactor: 16, Seed: -3}, "rmat:s=10,ef=16,seed=-3"},
		{GraphSpec{Type: "chunglu", N: 600, M: 3000, Gamma: 2.1, Seed: 3}, "chunglu:n=600,m=3000,g=2.1,seed=3"},
		{GraphSpec{Type: "chunglu", N: 1, M: 0, Gamma: 3.0000000000000004, Seed: 0}, "chunglu:n=1,m=0,g=3.0000000000000004,seed=0"},
		{GraphSpec{Type: "erdos-renyi", N: 5, M: 9, Seed: 1}, "er:n=5,m=9,seed=1"},
		{GraphSpec{Type: "barabasi-albert", N: 50, M: 3, Seed: 2}, "ba:n=50,m=3,seed=2"},
		{GraphSpec{Type: "complete", N: 50}, "complete:n=50"},
		{GraphSpec{Type: "hub-spokes", Hubs: 16, Leaves: 500, Attach: 3, Seed: 5}, "hubspokes:h=16,l=500,a=3,seed=5"},
		{GraphSpec{Type: "file", Path: "/tmp/g.bin"}, "file:/tmp/g.bin"},
	}
	for _, tc := range cases {
		if got := tc.spec.Key(); got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
	}
	// The edges hash form, cross-checked against fmt's %x rendering.
	es := GraphSpec{Type: "edges", Vertices: 7, Edges: [][2]uint32{{0, 1}, {1, 2}, {0, 2}}}
	got := es.Key()
	if !strings.HasPrefix(got, "edges:v=7,sha=") || len(got) != len("edges:v=7,sha=")+32 {
		t.Errorf("edges key %q has the wrong shape", got)
	}
	if want := fmt.Sprintf("edges:v=%d,sha=%s", es.Vertices, got[len("edges:v=7,sha="):]); got != want {
		t.Errorf("edges key %q disagrees with fmt rendering %q", got, want)
	}
	// And the full count key against its Sprintf predecessor.
	spec := GraphSpec{Type: "rmat", Scale: 12, EdgeFactor: 8, Seed: 9}
	for _, ff := range []float64{0, 0.15, 0.0375, 1e-9} {
		want := fmt.Sprintf("count:%s|algo=%s|hubs=%d|ff=%g|shards=%d", spec.Key(), "lotus", 256, ff, 4)
		if gotKey := string(appendCountKey(nil, &spec, "lotus", 256, ff, 4)); gotKey != want {
			t.Errorf("count key = %q, want %q", gotKey, want)
		}
	}
}

// graphChecksum mixes every offset and neighbour ID; two graphs share
// it only if they are (almost surely) bit-identical.
func graphChecksum(g *graph.Graph) uint64 {
	var h uint64 = 14695981039346656037
	for _, o := range g.Offsets() {
		h = (h ^ uint64(o)) * 1099511628211
	}
	for _, u := range g.RawNeighbors() {
		h = (h ^ uint64(u)) * 1099511628211
	}
	return h
}

// rehydrationCache builds a two-tier cache whose decoded tier cannot
// hold g, so every getOrBuild after the first is a forced rehydration
// from the compressed tier.
func rehydrationCache(t *testing.T, g *graph.Graph, met *obs.Metrics) *buildCache {
	t.Helper()
	c := newBuildCache("c", cacheConfig{maxBytes: 4 * graphBytes(g), compress: true, watermark: 0.01}, met)
	t.Cleanup(c.shutdown)
	v, _, rel, err := c.getOrBuild(context.Background(), "graph:g", func(context.Context) (any, int64, error) {
		return g, graphBytes(g), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*residentGraph).g; got != g {
		t.Fatal("fresh build returned a different graph")
	}
	rel()
	if c.peek("graph:g") {
		t.Fatal("graph admitted to a decoded tier that cannot hold it")
	}
	if !c.peekCompressed("graph:g") {
		t.Fatal("oversized graph's twin not demoted to the compressed tier")
	}
	return c
}

var errNoBuild = fmt.Errorf("build must not run: entry should rehydrate")

func failBuild(context.Context) (any, int64, error) { return nil, 0, errNoBuild }

// TestDemoteRehydrateBitIdentical: a graph that has been demoted and
// rehydrated must be bit-identical to the original — same offsets,
// same neighbour IDs, same orientation flag.
func TestDemoteRehydrateBitIdentical(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 42))
	c := rehydrationCache(t, g, obs.New())
	v, hit, rel, err := c.getOrBuild(context.Background(), "graph:g", failBuild)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if !hit {
		t.Fatal("rehydration did not report a cache hit")
	}
	rg := v.(*residentGraph)
	if rg.g == g {
		t.Fatal("rehydration returned the original pointer; expected a decoded copy")
	}
	if !reflect.DeepEqual(rg.g.Offsets(), g.Offsets()) ||
		!reflect.DeepEqual(rg.g.RawNeighbors(), g.RawNeighbors()) ||
		rg.g.Oriented != g.Oriented {
		t.Fatal("rehydrated graph is not bit-identical to the original")
	}
}

// TestRehydrationReusesPooledArena: sequential rehydrations must
// recycle one arena through the pool instead of allocating slabs per
// decode, and the whole cycle must stay within a tight allocation
// bound (flight bookkeeping only — no slab-sized allocations).
func TestRehydrationReusesPooledArena(t *testing.T) {
	met := obs.New()
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 42))
	c := rehydrationCache(t, g, met)
	ctx := context.Background()
	want := graphChecksum(g)
	cycle := func() {
		v, _, rel, err := c.getOrBuild(ctx, "graph:g", failBuild)
		if err != nil {
			t.Fatal(err)
		}
		if got := graphChecksum(v.(*residentGraph).g); got != want {
			t.Fatalf("rehydrated checksum %x, want %x", got, want)
		}
		rel()
	}
	// Two things empty sync.Pool behind the test's back and show up as
	// a spurious pool miss. A GC drops pooled items (two in a row drop
	// even the victim cache), and garbage from other tests in the
	// package can trigger one mid-measurement, so GC is held off from
	// the priming cycle to the end of the measured ones. And Get never
	// looks at another P's private slot: AllocsPerRun measures at
	// GOMAXPROCS(1), so an arena primed on any P but P0 is unreachable.
	// Priming runs at GOMAXPROCS(1) too.
	gcPercent := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gcPercent)
	})
	cycle() // first rehydration populates the pool
	base := met.Get("c.pool_hits")
	misses := met.Get("c.pool_misses")
	const runs = 20
	var allocs float64
	if !raceEnabled {
		allocs = testing.AllocsPerRun(runs, cycle)
	} else {
		for i := 0; i < runs; i++ {
			cycle()
		}
	}
	// Under the race detector sync.Pool deliberately drops items to
	// stress callers, so the strict pooling accounting only holds in
	// the normal build.
	if !raceEnabled {
		if hits := met.Get("c.pool_hits") - base; hits < runs {
			t.Fatalf("pool_hits grew by %d over %d rehydrations, want every decode pooled", hits, runs)
		}
		if got := met.Get("c.pool_misses"); got != misses {
			t.Fatalf("pool_misses grew during steady-state rehydration (%d -> %d)", misses, got)
		}
	}
	// The slabs for this graph are tens of KiB; a pooled cycle spends
	// a handful of small flight/bookkeeping objects only.
	if !raceEnabled && allocs > 64 {
		t.Fatalf("rehydration cycle allocates %v objects/op, want flight bookkeeping only", allocs)
	}
}

// TestConcurrentRehydrationArenaIsolation hammers rehydration of
// several graphs from many goroutines (run under -race by make
// check): two live requests must never observe each other's arena, so
// every checksum must match its own graph.
func TestConcurrentRehydrationArenaIsolation(t *testing.T) {
	met := obs.New()
	var biggest *graph.Graph
	graphs := make([]*graph.Graph, 4)
	sums := make([]uint64, len(graphs))
	for i := range graphs {
		graphs[i] = gen.RMAT(gen.DefaultRMAT(8, 8, int64(i+1)))
		sums[i] = graphChecksum(graphs[i])
		if biggest == nil || graphBytes(graphs[i]) > graphBytes(biggest) {
			biggest = graphs[i]
		}
	}
	// Decoded tier below the smallest graph, compressed tier ample:
	// every access is a rehydration or a shared rehydration flight.
	c := newBuildCache("c", cacheConfig{maxBytes: 8 * graphBytes(biggest), compress: true, watermark: 0.001}, met)
	defer c.shutdown()
	ctx := context.Background()
	for i, g := range graphs {
		g := g
		v, _, rel, err := c.getOrBuild(ctx, fmt.Sprintf("graph:%d", i), func(context.Context) (any, int64, error) {
			return g, graphBytes(g), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = v
		rel()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; i < 40; i++ {
				pick := rng.Intn(len(graphs))
				v, _, rel, err := c.getOrBuild(ctx, fmt.Sprintf("graph:%d", pick), failBuild)
				if err != nil {
					t.Errorf("worker %d: %v", worker, err)
					return
				}
				if got := graphChecksum(v.(*residentGraph).g); got != sums[pick] {
					t.Errorf("worker %d: graph %d checksum %x, want %x — arenas shared between live requests",
						worker, pick, got, sums[pick])
					rel()
					return
				}
				rel()
			}
		}(w)
	}
	wg.Wait()
	if met.Get("c.rehydrations") == 0 {
		t.Fatal("no rehydrations happened; the test exercised nothing")
	}
}

// discardResponseWriter is the zero-alloc sink for the gated warm-hit
// benchmark: a pre-built header map, no-op writes.
type discardResponseWriter struct{ hdr http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.hdr }
func (d *discardResponseWriter) WriteHeader(int)             {}
func (d *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestWarmCountHitZeroAlloc is the allocs/op gate of `make check`: a
// warm /v1/count hit — result-key lookup plus pre-rendered response
// write — must run at exactly zero steady-state allocations.
func TestWarmCountHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the allocation profile; gated in the non-race pass")
	}
	srv := New(Config{Workers: 2})
	h := srv.Handler()
	body := `{"graph":{"type":"rmat","scale":8,"edge_factor":8,"seed":1},"algorithm":"forward"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/count", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("seeding count failed: %d: %s", rec.Code, rec.Body)
	}
	spec := GraphSpec{Type: "rmat", Scale: 8, EdgeFactor: 8, Seed: 1}
	key := appendCountKey(nil, &spec, "forward", 0, 0, 0)
	dw := &discardResponseWriter{hdr: make(http.Header, 4)}
	if !srv.warmCountHit(dw, key) {
		t.Fatal("warm lookup missed the seeded result")
	}
	allocs := testing.AllocsPerRun(500, func() {
		if !srv.warmCountHit(dw, key) {
			panic("warm hit missed mid-benchmark")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm count hit allocates %v/op, want 0", allocs)
	}
}

// TestCompressedServeEndToEnd drives the whole tier through HTTP: a
// counted graph is demoted by later traffic, then counted again after
// rehydration with identical triangles, with the demotion and
// rehydration visible in /metrics.
func TestCompressedServeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{
		CacheBytes:      160_000,
		CompressCache:   true,
		DemoteWatermark: 0.3,
		Workers:         2,
	})
	count := func(seed int) uint64 {
		t.Helper()
		body := fmt.Sprintf(`{"graph":{"type":"rmat","scale":8,"edge_factor":8,"seed":%d},"algorithm":"forward","no_cache":true}`, seed)
		status, raw := postJSON(t, ts.URL+"/v1/count", body)
		if status != http.StatusOK {
			t.Fatalf("count seed=%d: status %d: %s", seed, status, raw)
		}
		return decodeCount(t, raw).Triangles
	}
	first := count(1)
	for seed := 2; seed <= 8; seed++ {
		count(seed)
	}
	if got := s.Metrics().Get("cache.demotions"); got == 0 {
		t.Fatal("no demotions despite traffic far over the decoded budget")
	}
	if got := s.Metrics().Get("cache.compressed_entries"); got == 0 {
		t.Fatal("compressed tier is empty despite demotions")
	}
	again := count(1)
	if again != first {
		t.Fatalf("count after demote/rehydrate = %d, want %d", again, first)
	}
	if got := s.Metrics().Get("cache.rehydrations"); got == 0 {
		t.Fatal("second count of the demoted graph did not rehydrate")
	}
	// Total residency (decoded + compressed) must beat what the raw
	// budget alone could hold — the point of the tier.
	resident := s.Metrics().Get("cache.graph_entries") + s.Metrics().Get("cache.compressed_entries")
	if resident < 8 {
		t.Fatalf("only %d graphs resident across both tiers, want all 8", resident)
	}
}

// TestCompressCacheOffUnchanged pins the default path: with the tier
// disabled nothing is demoted, no compressed gauges exist, and cached
// values stay raw *graph.Graph (no wrapping overhead).
func TestCompressCacheOffUnchanged(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	status, raw := postJSON(t, ts.URL+"/v1/count", rmatBody)
	if status != http.StatusOK {
		t.Fatalf("count: %d: %s", status, raw)
	}
	if got := s.Metrics().Get("cache.demotions"); got != 0 {
		t.Fatalf("demotions = %d with compression off", got)
	}
	s.cache.mu.Lock()
	v, ok := s.cache.lru.get("graph:" + (&GraphSpec{Type: "rmat", Scale: 8, EdgeFactor: 8, Seed: 1}).Key())
	s.cache.mu.Unlock()
	if !ok {
		t.Fatal("graph not resident")
	}
	if _, isRaw := v.(*graph.Graph); !isRaw {
		t.Fatalf("cached value is %T with compression off, want *graph.Graph", v)
	}
}
