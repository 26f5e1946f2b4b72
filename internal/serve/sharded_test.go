package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"lotustc/internal/core"
	"lotustc/internal/engine"
	"lotustc/internal/gen"
)

// TestAlgorithmsCapabilities: /v1/algorithms exposes the capability
// tags clients route on (cancellable, shardable, streaming).
func TestAlgorithmsCapabilities(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var v struct {
		Algorithms []AlgorithmInfo `json:"algorithms"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("bad body: %v\n%s", err, body)
	}
	byName := map[string]AlgorithmCaps{}
	for _, a := range v.Algorithms {
		byName[a.Name] = a.Capabilities
	}
	if len(byName) != len(engine.Algorithms()) {
		t.Fatalf("listed %d algorithms, registry has %d", len(byName), len(engine.Algorithms()))
	}
	if _, ok := byName["lotus-sharded"]; ok {
		t.Fatalf("retired lotus-sharded still listed: %v", byName)
	}
	lotus := byName["lotus"]
	if !lotus.Streaming || !lotus.Cancellable || !lotus.Shardable || !lotus.Parallel {
		t.Fatalf("lotus capabilities = %+v", lotus)
	}
	if fwd := byName["forward"]; fwd.Streaming || fwd.Shardable || !fwd.Cancellable {
		t.Fatalf("forward capabilities = %+v", fwd)
	}
}

// TestShardedRoutingServesOversizedGraph is the serving acceptance
// criterion: with a cache budget far below the graph's monolithic
// LOTUS structure, a plain "lotus" count runs over a wider grid of
// per-shard structures — the count is exact, the response still says
// lotus, the shard entries are resident (each fits the budget where
// the monolithic one cannot), and a second request is served warm.
func TestShardedRoutingServesOversizedGraph(t *testing.T) {
	// R-MAT scale 12 / ef 8: the monolithic structure estimate is a
	// few hundred KiB, far over this budget; the per-shard pieces fit.
	srv, ts := newTestServer(t, Config{CacheBytes: 150 << 10})

	spec := GraphSpec{Type: "rmat", Scale: 12, EdgeFactor: 8, Seed: 9}
	g := gen.RMAT(gen.RMATParams{Scale: 12, EdgeFactor: 8, Seed: 9, A: 0.57, B: 0.19, C: 0.19, Noise: 0.05})
	if est := estimateLotusBytes(g, 0); est <= srv.cfg.MaxStructureBytes {
		t.Fatalf("test graph too small to trigger routing: est %d <= budget %d",
			est, srv.cfg.MaxStructureBytes)
	}
	want, err := engine.Run(context.Background(), g, engine.Spec{Algorithm: "lotus"})
	if err != nil {
		t.Fatal(err)
	}

	body := `{"graph": {"type": "rmat", "scale": 12, "edge_factor": 8, "seed": 9}, "no_cache": true}`
	status, raw := postJSON(t, ts.URL+"/v1/count", body)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, raw)
	}
	cold := decodeCount(t, raw)
	if cold.Algorithm != "lotus" || cold.Cache.Algorithm != "lotus" {
		t.Fatalf("oversized graph: algorithm %q, cache.algorithm %q; want lotus for both",
			cold.Algorithm, cold.Cache.Algorithm)
	}
	if cold.Triangles != want.Triangles {
		t.Fatalf("sharded count %d != monolithic %d", cold.Triangles, want.Triangles)
	}
	if cold.Classes == nil ||
		cold.Classes.HHH+cold.Classes.HHN+cold.Classes.HNN+cold.Classes.NNN != cold.Triangles {
		t.Fatalf("sharded response class split broken: %+v", cold.Classes)
	}

	// The monolithic structure can never be resident under this
	// budget, but the per-shard entries are individually admissible:
	// at least the hottest of them must be resident after the count.
	// (Their total still exceeds the budget — the LRU keeps the warm
	// tail, not all p of them.)
	p, _ := autoGrid(estimateLotusBytes(g, 0), srv.cfg.MaxStructureBytes)
	resident := 0
	for b := 0; b < p; b++ {
		if srv.cache.peek(shardKey(&spec, 0, 0, p, b)) {
			resident++
		}
	}
	if resident == 0 {
		t.Fatalf("no shard entry resident after the cold count (p=%d)", p)
	}
	if srv.cache.peek(shardKey(&spec, 0, 0, 1, 0)) {
		t.Fatal("flat structure cached despite exceeding the budget")
	}

	// Warm request: still exact, still served through the shard path,
	// rebuilding only the evicted pieces.
	status, raw = postJSON(t, ts.URL+"/v1/count", body)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", status, raw)
	}
	warm := decodeCount(t, raw)
	if warm.Triangles != want.Triangles {
		t.Fatalf("warm sharded count %d != monolithic %d", warm.Triangles, want.Triangles)
	}
	if warm.Algorithm != "lotus" {
		t.Fatalf("warm request algorithm %q", warm.Algorithm)
	}
	if srv.Metrics().Get("serve.sharded_routed") == 0 {
		t.Fatal("serve.sharded_routed metric not bumped")
	}
}

// TestExplicitShardedRequest: asking for lotus with a pinned grid
// works below the routing threshold too.
func TestExplicitShardedRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 4}, "algorithm": "lotus", "shards": 3}`
	status, raw := postJSON(t, ts.URL+"/v1/count", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	cr := decodeCount(t, raw)
	ref, raw2 := postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 4}}`)
	if ref != http.StatusOK {
		t.Fatalf("reference: status %d: %s", ref, raw2)
	}
	if wantT := decodeCount(t, raw2).Triangles; cr.Triangles != wantT {
		t.Fatalf("sharded %d != lotus %d", cr.Triangles, wantT)
	}
	// Under the default (ample) budget the whole grid stays resident,
	// so a repeat request hits every shard entry.
	status, raw = postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 4}, "algorithm": "lotus", "shards": 3, "no_cache": true}`)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", status, raw)
	}
	warm := decodeCount(t, raw)
	if !warm.Cache.Lotus {
		t.Fatal("warm explicit-sharded request did not hit the shard structure cache")
	}
	// Sharded counts run on pooled kernel scratch, like flat ones: two
	// more uncached counts on the same server, each on bitmaps a
	// previous count left behind, must agree in every class.
	for i := 0; i < 2; i++ {
		status, raw = postJSON(t, ts.URL+"/v1/count",
			`{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 4}, "algorithm": "lotus", "shards": 3, "no_cache": true}`)
		if status != http.StatusOK {
			t.Fatalf("no_cache count %d: status %d: %s", i, status, raw)
		}
		again := decodeCount(t, raw)
		if again.Triangles != warm.Triangles || again.Classes == nil || warm.Classes == nil || *again.Classes != *warm.Classes {
			t.Fatalf("no_cache count %d: %d triangles, classes %+v; want %d, %+v",
				i, again.Triangles, again.Classes, warm.Triangles, warm.Classes)
		}
	}
}

// TestOneStructurePerSpec: "lotus", "lotus" at shards 1 and /v1/topk
// on one spec share one LOTUS structure, the p = 1 grid. The
// first count builds its plan and its one shard; the other two are
// served from them, and no other structure entry is ever resident.
func TestOneStructurePerSpec(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	spec := GraphSpec{Type: "rmat", Scale: 10, EdgeFactor: 8, Seed: 6}
	graphJSON := `{"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 6}`
	// structureKeys lists the resident keys other than the graph's.
	structureKeys := func() []string {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		var keys []string
		for k := range srv.cache.lru.items {
			if !strings.HasPrefix(k, "graph:") {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		return keys
	}
	want := []string{shardKey(&spec, 0, 0, 1, 0), shardPlanKey(&spec, 0, 0, 1)}

	status, raw := postJSON(t, ts.URL+"/v1/count", `{"graph": `+graphJSON+`, "algorithm": "lotus"}`)
	if status != http.StatusOK {
		t.Fatalf("lotus: status %d: %s", status, raw)
	}
	flat := decodeCount(t, raw)
	builds := srv.Metrics().Get("cache.builds")
	if got := structureKeys(); !slices.Equal(got, want) {
		t.Fatalf("after lotus: structure entries %v, want %v", got, want)
	}

	status, raw = postJSON(t, ts.URL+"/v1/count", `{"graph": `+graphJSON+`, "algorithm": "lotus", "shards": 1}`)
	if status != http.StatusOK {
		t.Fatalf("lotus at shards 1: status %d: %s", status, raw)
	}
	one := decodeCount(t, raw)
	if !one.Cache.Lotus {
		t.Fatal("lotus at shards 1 did not hit the lotus count's structure")
	}
	if one.Triangles != flat.Triangles || one.Classes == nil || flat.Classes == nil || *one.Classes != *flat.Classes {
		t.Fatalf("shards 1: %d triangles, classes %+v; lotus %d, %+v", one.Triangles, one.Classes, flat.Triangles, flat.Classes)
	}

	status, raw = postJSON(t, ts.URL+"/v1/topk", `{"graph": `+graphJSON+`, "k": 5}`)
	if status != http.StatusOK {
		t.Fatalf("topk: status %d: %s", status, raw)
	}
	var top TopKResponse
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatalf("topk body: %v\n%s", err, raw)
	}
	if !top.Cache.Lotus || len(top.Vertices) != 5 {
		t.Fatalf("topk: cache %+v, %d vertices", top.Cache, len(top.Vertices))
	}

	if got := srv.Metrics().Get("cache.builds"); got != builds {
		t.Fatalf("cache.builds went from %d to %d after the first count", builds, got)
	}
	if got := structureKeys(); !slices.Equal(got, want) {
		t.Fatalf("after all three: structure entries %v, want %v", got, want)
	}
}

// TestCorruptPreparedEntriesEvictedAndRetried: a cached structure that
// contradicts the request's graph (simulated corruption) must not fail
// the request — the server matches on engine.ErrPreparedMismatch,
// evicts the poisoned entries, and recounts from scratch.
func TestCorruptPreparedEntriesEvictedAndRetried(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	spec := GraphSpec{Type: "complete", N: 64}

	// Poison the flat structure's slots (the p = 1 plan and shard)
	// with a foreign graph's structure: right keys, wrong vertex count.
	foreign, err := core.TryPreprocess(gen.Complete(16), core.Options{Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	foreignPlan, err := core.NewPlan(gen.Complete(16), core.Options{Grid: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.mu.Lock()
	srv.cache.lru.add(shardPlanKey(&spec, 0, 0, 1), foreignPlan, 1)
	srv.cache.lru.add(shardKey(&spec, 0, 0, 1, 0), foreign.Shards[0], 1)
	srv.cache.mu.Unlock()

	body := `{"graph": {"type": "complete", "n": 64}}`
	status, raw := postJSON(t, ts.URL+"/v1/count", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if got, want := decodeCount(t, raw).Triangles, uint64(64*63*62/6); got != want {
		t.Fatalf("triangles after corrupt-entry retry: %d, want %d", got, want)
	}
	if srv.Metrics().Get("cache.corrupt_evictions") == 0 {
		t.Fatal("corrupt entry was not evicted")
	}

	// Same for the sharded path: plan + shards from a foreign graph.
	wrongGrid, err := core.TryPreprocess(gen.Complete(16), core.Options{Grid: 2})
	if err != nil {
		t.Fatal(err)
	}
	wrongPlan, err := core.NewPlan(gen.Complete(16), core.Options{Grid: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.mu.Lock()
	srv.cache.lru.add(shardPlanKey(&spec, 0, 0, 2), wrongPlan, 1)
	for b := 0; b < 2; b++ {
		srv.cache.lru.add(shardKey(&spec, 0, 0, 2, b), wrongGrid.Shards[b], 1)
	}
	srv.cache.mu.Unlock()
	before := srv.Metrics().Get("cache.corrupt_evictions")

	body = `{"graph": {"type": "complete", "n": 64}, "algorithm": "lotus", "shards": 2, "no_cache": true}`
	status, raw = postJSON(t, ts.URL+"/v1/count", body)
	if status != http.StatusOK {
		t.Fatalf("sharded: status %d: %s", status, raw)
	}
	if got, want := decodeCount(t, raw).Triangles, uint64(64*63*62/6); got != want {
		t.Fatalf("sharded triangles after corrupt-entry retry: %d, want %d", got, want)
	}
	if srv.Metrics().Get("cache.corrupt_evictions") <= before {
		t.Fatal("corrupt shard entries were not evicted")
	}
}

// TestShardClampWarnsAndRefuses: when the auto shard grid hits its
// p=16 clamp the response carries a cache-info warning and the
// serve.shard_clamp metric ticks (the clamp used to be silent); when
// even 16 shards are hopelessly over budget the request is refused
// with 413 structure_too_large instead of thrashing the cache.
func TestShardClampWarnsAndRefuses(t *testing.T) {
	g := gen.RMAT(gen.RMATParams{Scale: 10, EdgeFactor: 8, Seed: 7, A: 0.57, B: 0.19, C: 0.19, Noise: 0.05})
	est := estimateLotusBytes(g, 0)

	// Budget in [est/32, est/16): autoGrid wants p>16, but the 2x
	// per-shard slack still admits the request -> warning branch.
	srv, ts := newTestServer(t, Config{MaxStructureBytes: est / 20})
	want, err := engine.Run(context.Background(), g, engine.Spec{Algorithm: "lotus"})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 7}}`
	status, raw := postJSON(t, ts.URL+"/v1/count", body)
	if status != http.StatusOK {
		t.Fatalf("clamped count: status %d: %s", status, raw)
	}
	resp := decodeCount(t, raw)
	if resp.Algorithm != "lotus" || resp.Triangles != want.Triangles {
		t.Fatalf("clamped count wrong: algo %q triangles %d, want lotus %d",
			resp.Algorithm, resp.Triangles, want.Triangles)
	}
	if resp.Cache.Warning == "" {
		t.Fatal("clamped auto grid produced no cache-info warning")
	}
	if got := srv.Metrics().Get("serve.shard_clamp"); got != 1 {
		t.Fatalf("serve.shard_clamp = %d, want 1", got)
	}
	// The warning must survive a result-cache hit.
	status, raw = postJSON(t, ts.URL+"/v1/count", body)
	if status != http.StatusOK {
		t.Fatalf("warm clamped count: status %d: %s", status, raw)
	}
	if resp = decodeCount(t, raw); !resp.Cache.Result || resp.Cache.Warning == "" {
		t.Fatalf("result-cache hit dropped the clamp warning: %+v", resp.Cache)
	}

	// Budget below est/32: even 16 shards blow the budget -> 413.
	srv2, ts2 := newTestServer(t, Config{MaxStructureBytes: est / 64})
	status, raw = postJSON(t, ts2.URL+"/v1/count", body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("hopeless clamp: status %d, want 413: %s", status, raw)
	}
	if !bytes.Contains(raw, []byte("structure_too_large")) {
		t.Fatalf("hopeless clamp error body: %s", raw)
	}
	if got := srv2.Metrics().Get("serve.shard_clamp"); got != 1 {
		t.Fatalf("serve.shard_clamp = %d, want 1", got)
	}
	// An explicit shards count side-steps the refusal: the caller has
	// taken responsibility for residency.
	status, raw = postJSON(t, ts2.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 7}, "shards": 4, "no_cache": true}`)
	if status != http.StatusOK {
		t.Fatalf("explicit shards: status %d: %s", status, raw)
	}
	if resp = decodeCount(t, raw); resp.Triangles != want.Triangles {
		t.Fatalf("explicit shards count %d, want %d", resp.Triangles, want.Triangles)
	}
}

// TestDefaultAlgorithmHonorsShards: "shards" sets the grid of every
// lotus count, also one the default route (auto) resolves to lotus:
// the p = 3 plan and all three shard entries become resident, and
// nothing is built at p = 1.
func TestDefaultAlgorithmHonorsShards(t *testing.T) {
	for _, algo := range []string{"", "auto", "lotus"} {
		t.Run("algo="+algo, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{})
			spec := GraphSpec{Type: "rmat", Scale: 10, EdgeFactor: 8, Seed: 3}
			body := `{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 3}, "shards": 3`
			if algo != "" {
				body += `, "algorithm": "` + algo + `"`
			}
			status, raw := postJSON(t, ts.URL+"/v1/count", body+`}`)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, raw)
			}
			if got := decodeCount(t, raw).Cache.Algorithm; got != "lotus" {
				t.Fatalf("cache.algorithm %q, want lotus", got)
			}
			if !srv.cache.peek(shardPlanKey(&spec, 0, 0, 3)) {
				t.Fatal("p=3 plan entry not resident")
			}
			for b := 0; b < 3; b++ {
				if !srv.cache.peek(shardKey(&spec, 0, 0, 3, b)) {
					t.Fatalf("p=3 shard entry %d not resident", b)
				}
			}
			if srv.cache.peek(shardPlanKey(&spec, 0, 0, 1)) || srv.cache.peek(shardKey(&spec, 0, 0, 1, 0)) {
				t.Fatal("a p=1 structure was built for a shards=3 request")
			}
		})
	}
}

// TestShardsValidatedBeforeWork: a grid dimension outside
// [0, core.MaxGrid] is the client's mistake: 400 bad_request before
// the graph is built, and no server error on the books.
func TestShardsValidatedBeforeWork(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, shards := range []int{-1, core.MaxGrid + 1, 1000000} {
		body := fmt.Sprintf(`{"graph": {"type": "rmat", "scale": 10, "edge_factor": 8, "seed": 3}, "shards": %d}`, shards)
		status, raw := postJSON(t, ts.URL+"/v1/count", body)
		if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("bad_request")) {
			t.Fatalf("shards %d: status %d, body %s; want 400 bad_request", shards, status, raw)
		}
	}
	for _, name := range []string{"serve.errors", "serve.graph_builds", "cache.builds"} {
		if got := srv.Metrics().Get(name); got != 0 {
			t.Fatalf("%s = %d after rejected requests, want 0", name, got)
		}
	}
}

// TestShardedNameRetired: "lotus-sharded" is no longer an algorithm:
// a count naming it is a 400 unknown_algorithm, and /metrics carries
// no decision counter for it.
func TestShardedNameRetired(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, raw := postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 8, "edge_factor": 8, "seed": 1}, "algorithm": "lotus-sharded", "shards": 2}`)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("unknown_algorithm")) {
		t.Fatalf("lotus-sharded: status %d, body %s; want 400 unknown_algorithm", status, raw)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"tune.decision.lotus"`) {
		t.Fatalf("/metrics: status %d, no tune.decision.lotus: %s", resp.StatusCode, body)
	}
	if strings.Contains(body, "tune.decision.lotus-sharded") {
		t.Fatal("/metrics still carries tune.decision.lotus-sharded")
	}
}
