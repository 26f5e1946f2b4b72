package serve

// End-to-end tests of the serving layer over httptest, written to run
// clean under -race: cache hit/miss/eviction accounting, single-flight
// collapse of a thundering herd, per-request timeouts that answer 504
// while the server keeps serving, graceful-shutdown draining, and the
// 4xx/5xx classification of corrupt or oriented inputs.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lotustc/internal/gen"
	"lotustc/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, raw
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

func decodeCount(t *testing.T, raw []byte) *CountResponse {
	t.Helper()
	var cr CountResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("bad count response %s: %v", raw, err)
	}
	return &cr
}

const rmatBody = `{"graph": {"type": "rmat", "scale": 8, "edge_factor": 8, "seed": 1}}`

func TestCountColdThenCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	status, raw := postJSON(t, ts.URL+"/v1/count", rmatBody)
	if status != http.StatusOK {
		t.Fatalf("cold count: status %d: %s", status, raw)
	}
	cold := decodeCount(t, raw)
	if cold.Triangles == 0 {
		t.Fatal("cold count returned zero triangles")
	}
	if cold.Cache.Graph || cold.Cache.Lotus || cold.Cache.Result {
		t.Fatalf("cold count claims cache hits: %+v", cold.Cache)
	}
	if got := s.Metrics().Get("cache.misses"); got != 4 { // graph + tune decision + the p = 1 grid's plan and shard
		t.Fatalf("cache.misses = %d after cold count, want 4", got)
	}

	status, raw = postJSON(t, ts.URL+"/v1/count", rmatBody)
	if status != http.StatusOK {
		t.Fatalf("warm count: status %d: %s", status, raw)
	}
	warm := decodeCount(t, raw)
	if warm.Triangles != cold.Triangles {
		t.Fatalf("warm count %d != cold count %d", warm.Triangles, cold.Triangles)
	}
	if !warm.Cache.Result {
		t.Fatalf("warm count was not a result hit: %+v", warm.Cache)
	}
	if got := s.Metrics().Get("result.hits"); got != 1 {
		t.Fatalf("result.hits = %d, want 1", got)
	}

	// NoCache bypasses result memoization but still hits the
	// structure cache.
	status, raw = postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 8, "edge_factor": 8, "seed": 1}, "no_cache": true}`)
	if status != http.StatusOK {
		t.Fatalf("no_cache count: status %d: %s", status, raw)
	}
	nc := decodeCount(t, raw)
	if nc.Cache.Result {
		t.Fatal("no_cache request served from the result cache")
	}
	if !nc.Cache.Graph || !nc.Cache.Lotus {
		t.Fatalf("no_cache request missed the structure caches: %+v", nc.Cache)
	}
	if nc.Triangles != cold.Triangles {
		t.Fatalf("no_cache count %d != cold count %d", nc.Triangles, cold.Triangles)
	}
}

func TestCacheEviction(t *testing.T) {
	// A budget of a few KiB holds roughly one small graph + structure
	// pair, so a sweep of distinct graphs must evict.
	s, ts := newTestServer(t, Config{CacheBytes: 8 << 10})
	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"graph": {"type": "rmat", "scale": 7, "edge_factor": 8, "seed": %d}}`, seed)
		if status, raw := postJSON(t, ts.URL+"/v1/count", body); status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, raw)
		}
	}
	if got := s.Metrics().Get("cache.evictions"); got == 0 {
		t.Fatalf("no evictions after sweeping %d graphs through an 8 KiB budget (bytes=%d entries=%d)",
			4, s.Metrics().Get("cache.bytes"), s.Metrics().Get("cache.entries"))
	}
	// The budget holds after the sweep.
	if got := s.Metrics().Get("cache.bytes"); got > 8<<10 {
		t.Fatalf("cache.bytes = %d exceeds the %d budget", got, 8<<10)
	}
}

func TestSingleFlightCollapsesHerd(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 16, MaxQueue: 64})
	const herd = 12
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/count", "application/json",
				strings.NewReader(`{"graph": {"type": "rmat", "scale": 9, "edge_factor": 8, "seed": 5}, "no_cache": true}`))
			if err != nil {
				errs <- err
				return
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// However the herd interleaved, each structure was built at most
	// once: one graph build + one tune decision + the LOTUS p = 1
	// grid's plan and shard.
	if got := s.Metrics().Get("cache.builds"); got != 4 {
		t.Fatalf("cache.builds = %d for %d identical requests, want 4", got, herd)
	}
}

func TestTimeoutReturns504AndServerSurvives(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A 1 ms budget cannot build + preprocess + count a scale-12
	// graph; the request must come back 504 with a partial report.
	status, raw := postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 12, "edge_factor": 16, "seed": 9}, "timeout_ms": 1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, raw)
	}
	var partial struct {
		Error string `json:"error"`
		Code  string `json:"code"`
		Graph struct {
			Source string `json:"source"`
		} `json:"graph"`
	}
	if err := json.Unmarshal(raw, &partial); err != nil {
		t.Fatalf("504 body is not JSON: %s", raw)
	}
	if partial.Error == "" || partial.Graph.Source == "" {
		t.Fatalf("504 report lacks error/graph context: %s", raw)
	}
	// The process survived: a normal query still works.
	if status, raw := postJSON(t, ts.URL+"/v1/count", rmatBody); status != http.StatusOK {
		t.Fatalf("server unhealthy after timeout: status %d: %s", status, raw)
	}
}

// TestRecursiveLotusUnknown: recursive LOTUS is not registered, so a
// request naming it is refused like any unknown algorithm, and no
// tune decision counter is pre-registered for it.
func TestRecursiveLotusUnknown(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, raw := postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 8, "edge_factor": 8, "seed": 1}, "algorithm": "lotus-recursive"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, raw)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != "unknown_algorithm" {
		t.Fatalf("body %s, want code unknown_algorithm", raw)
	}
	if _, ok := s.Metrics().Snapshot()[obs.TuneDecisionPrefix+"lotus-recursive"]; ok {
		t.Fatal("/metrics still carries tune.decision.lotus-recursive")
	}
}

func TestBadSpecAndOrientedAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()

	orientedPath := filepath.Join(dir, "oriented.lotg")
	f, err := os.Create(orientedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Complete(8).Orient().WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	corruptPath := filepath.Join(dir, "corrupt.lotg")
	if err := os.WriteFile(corruptPath, []byte("LOTGgarbage-not-a-graph"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{AllowFiles: true})
	cases := []struct {
		name, body string
		wantMin    int // lowest acceptable status
		wantMax    int
	}{
		{"unknown type", `{"graph": {"type": "nope"}}`, 400, 400},
		{"oversized scale", `{"graph": {"type": "rmat", "scale": 40, "edge_factor": 8}}`, 400, 400},
		{"unknown field", `{"graph": {"type": "rmat", "scale": 8, "edge_factor": 8}, "typo_knob": 1}`, 400, 400},
		{"unknown algorithm", `{"graph": {"type": "rmat", "scale": 8, "edge_factor": 8}, "algorithm": "quantum"}`, 400, 400},
		{"oriented file", fmt.Sprintf(`{"graph": {"type": "file", "path": %q}}`, orientedPath), 400, 400},
		{"corrupt file", fmt.Sprintf(`{"graph": {"type": "file", "path": %q}}`, corruptPath), 400, 599},
		{"missing file", fmt.Sprintf(`{"graph": {"type": "file", "path": %q}}`, filepath.Join(dir, "absent.lotg")), 400, 599},
	}
	for _, tc := range cases {
		status, raw := postJSON(t, ts.URL+"/v1/count", tc.body)
		if status < tc.wantMin || status > tc.wantMax {
			t.Fatalf("%s: status %d outside [%d, %d]: %s", tc.name, status, tc.wantMin, tc.wantMax, raw)
		}
		var je map[string]any
		if err := json.Unmarshal(raw, &je); err != nil {
			t.Fatalf("%s: error body is not JSON: %s", tc.name, raw)
		}
		// Every failure leaves the server serving.
		if status, _ := postJSON(t, ts.URL+"/v1/count", rmatBody); status != http.StatusOK {
			t.Fatalf("server stopped serving after %q", tc.name)
		}
	}
}

func TestFileSpecsGatedByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // AllowFiles off
	status, raw := postJSON(t, ts.URL+"/v1/count", `{"graph": {"type": "file", "path": "/etc/hostname"}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("file spec without -allow-files: status %d, want 400: %s", status, raw)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park a slow request in flight, then drain.
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		close(started)
		resp, err := http.Post(ts.URL+"/v1/count", "application/json",
			strings.NewReader(`{"graph": {"type": "rmat", "scale": 13, "edge_factor": 16, "seed": 3}, "no_cache": true}`))
		if err != nil {
			result <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			result <- fmt.Errorf("in-flight request got status %d during drain", resp.StatusCode)
			return
		}
		result <- nil
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the request reach the engine
	s.BeginDrain()

	// Draining: health flips to 503 and new API requests are refused.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: status %d, want 503", resp.StatusCode)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/count", rmatBody); status != http.StatusServiceUnavailable {
		t.Fatalf("new request while draining: status %d, want 503", status)
	}
	// The in-flight request still completes with 200.
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request did not finish during drain")
	}
}

func TestAdmissionQueueBound(t *testing.T) {
	// One slot, no queue: a second concurrent request must get 429.
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	release := make(chan struct{})
	firstIn := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A big cold request occupies the only slot.
		firstIn <- struct{}{}
		resp, err := http.Post(ts.URL+"/v1/count", "application/json",
			strings.NewReader(`{"graph": {"type": "rmat", "scale": 14, "edge_factor": 16, "seed": 8}, "no_cache": true}`))
		if err == nil {
			resp.Body.Close()
		}
		close(release)
	}()
	<-firstIn
	time.Sleep(100 * time.Millisecond)
	// Overflow concurrently: with the slot held and one queue seat,
	// a burst of waiters must spill into 429s.
	const burst = 6
	statuses := make(chan int, burst)
	var burstWG sync.WaitGroup
	for i := 0; i < burst; i++ {
		burstWG.Add(1)
		go func(i int) {
			defer burstWG.Done()
			status, _ := postJSON(t, ts.URL+"/v1/count",
				fmt.Sprintf(`{"graph": {"type": "rmat", "scale": 13, "edge_factor": 16, "seed": %d}, "timeout_ms": 500}`, 20+i))
			statuses <- status
		}(i)
	}
	burstWG.Wait()
	close(statuses)
	<-release
	wg.Wait()
	got429 := false
	for status := range statuses {
		if status == http.StatusTooManyRequests {
			got429 = true
		}
	}
	if !got429 {
		t.Fatal("queue overflow never produced a 429")
	}
}

func TestStreamSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Bad hub sets are 400s, not panics (satellite 2 end-to-end).
	status, raw := postJSON(t, ts.URL+"/v1/stream", `{"vertices": 10, "hubs": [3, 10]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("out-of-range hub: status %d, want 400: %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/v1/stream", `{"vertices": 10, "hubs": [3, 3]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("duplicate hub: status %d, want 400: %s", status, raw)
	}

	status, raw = postJSON(t, ts.URL+"/v1/stream",
		`{"vertices": 16, "hubs": [0, 1, 2, 3], "count_non_hub": true}`)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	var st StreamState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	// Ingest K6 over vertices 0..5; poll concurrently while it lands.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/stream/" + st.ID)
				if err != nil {
					return
				}
				readAll(t, resp)
			}
		}()
	}
	edges := `[`
	sep := ""
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			edges += fmt.Sprintf("%s[%d, %d]", sep, u, v)
			sep = ", "
		}
	}
	edges += `]`
	status, raw = postJSON(t, ts.URL+"/v1/stream/"+st.ID+"/edges", `{"add": `+edges+`}`)
	close(stop)
	wg.Wait()
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, raw)
	}
	var after StreamState
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if total := after.HHH + after.HHN + after.HNN + after.NNN; total != 20 { // C(6,3)
		t.Fatalf("K6 ingest: %d triangles, want 20 (%+v)", total, after)
	}

	// Removal unwinds.
	status, raw = postJSON(t, ts.URL+"/v1/stream/"+st.ID+"/edges", `{"remove": `+edges+`}`)
	if status != http.StatusOK {
		t.Fatalf("remove: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if total := after.HHH + after.HHN + after.HNN + after.NNN; total != 0 || after.Edges != 0 {
		t.Fatalf("after removing every edge: %+v, want zeros", after)
	}

	// Delete, then the session is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stream/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/stream/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session answered %d, want 404", resp.StatusCode)
	}
}

// TestLotusOptionsValidated: /v1/count and /v1/topk reject a negative
// hub_count and a front_fraction outside [0, 1] with 400 bad_request
// before admission (no graph is built), and accept the 0 and 1
// boundaries with the same count as the defaults.
func TestLotusOptionsValidated(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const graph = `"graph": {"type": "rmat", "scale": 8, "edge_factor": 8, "seed": 1}`
	for _, path := range []string{"/v1/count", "/v1/topk"} {
		for _, opt := range []string{
			`"hub_count": -1`,
			`"hub_count": -1000`,
			`"front_fraction": -1`,
			`"front_fraction": -0.001`,
			`"front_fraction": 1.0001`,
			`"front_fraction": 2`,
		} {
			status, raw := postJSON(t, ts.URL+path, "{"+graph+", "+opt+"}")
			if status != http.StatusBadRequest {
				t.Fatalf("%s {%s}: status %d, want 400: %s", path, opt, status, raw)
			}
			var e apiErr
			if err := json.Unmarshal(raw, &e); err != nil || e.Code != "bad_request" {
				t.Fatalf("%s {%s}: error body %s, want code bad_request", path, opt, raw)
			}
		}
	}
	if got := s.Metrics().Get("cache.misses"); got != 0 {
		t.Fatalf("rejected requests reached the cache: cache.misses = %d", got)
	}

	status, raw := postJSON(t, ts.URL+"/v1/count", "{"+graph+"}")
	if status != http.StatusOK {
		t.Fatalf("default options: status %d: %s", status, raw)
	}
	want := decodeCount(t, raw).Triangles
	for _, opt := range []string{
		`"hub_count": 0`,
		`"front_fraction": 0`,
		`"front_fraction": 1`,
		`"hub_count": 4, "front_fraction": 1`,
	} {
		status, raw := postJSON(t, ts.URL+"/v1/count", "{"+graph+", "+opt+"}")
		if status != http.StatusOK {
			t.Fatalf("/v1/count {%s}: status %d, want 200: %s", opt, status, raw)
		}
		if got := decodeCount(t, raw).Triangles; got != want {
			t.Fatalf("/v1/count {%s}: %d triangles, want %d", opt, got, want)
		}
		if status, raw := postJSON(t, ts.URL+"/v1/topk", "{"+graph+", "+opt+`, "k": 2}`); status != http.StatusOK {
			t.Fatalf("/v1/topk {%s}: status %d, want 200: %s", opt, status, raw)
		}
	}
}

func TestTopKAndEstimate(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Hub-and-spokes: hub 0..2 dominate triangle membership.
	body := `{"graph": {"type": "hub-spokes", "hubs": 3, "leaves": 50, "attach": 3, "seed": 2}, "k": 3}`
	status, raw := postJSON(t, ts.URL+"/v1/topk", body)
	if status != http.StatusOK {
		t.Fatalf("topk: status %d: %s", status, raw)
	}
	var tk TopKResponse
	if err := json.Unmarshal(raw, &tk); err != nil {
		t.Fatal(err)
	}
	if len(tk.Vertices) != 3 {
		t.Fatalf("topk returned %d vertices, want 3", len(tk.Vertices))
	}
	for i := 1; i < len(tk.Vertices); i++ {
		if tk.Vertices[i].Triangles > tk.Vertices[i-1].Triangles {
			t.Fatalf("topk not sorted: %+v", tk.Vertices)
		}
	}

	// Exact count for the same graph, then a hybrid estimate with
	// p=1 (exact by construction) must agree.
	status, raw = postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "hub-spokes", "hubs": 3, "leaves": 50, "attach": 3, "seed": 2}}`)
	if status != http.StatusOK {
		t.Fatalf("count: status %d: %s", status, raw)
	}
	exact := decodeCount(t, raw)
	status, raw = postJSON(t, ts.URL+"/v1/estimate",
		`{"graph": {"type": "hub-spokes", "hubs": 3, "leaves": 50, "attach": 3, "seed": 2}, "method": "hybrid", "p": 1}`)
	if status != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", status, raw)
	}
	var er EstimateResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if uint64(er.Estimate+0.5) != exact.Triangles {
		t.Fatalf("hybrid p=1 estimate %g != exact %d", er.Estimate, exact.Triangles)
	}
	if !er.Cache.Graph {
		t.Fatal("estimate after count did not hit the graph cache")
	}

	// Estimator parameter validation.
	status, _ = postJSON(t, ts.URL+"/v1/estimate",
		`{"graph": {"type": "complete", "n": 10}, "method": "doulion", "p": 2}`)
	if status != http.StatusBadRequest {
		t.Fatalf("doulion p=2: status %d, want 400", status)
	}
}

func TestHealthzMetricsAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/metrics", "/v1/algorithms"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("GET %s: non-JSON body %s", path, body)
		}
	}
}

// TestCacheHitIsTenTimesFaster is the acceptance criterion measured
// directly: the second identical query must be served at least 10x
// faster than the first. Result memoization makes the margin enormous
// in practice; the 10x floor keeps the test robust on loaded CI.
func TestCacheHitIsTenTimesFaster(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"graph": {"type": "rmat", "scale": 11, "edge_factor": 16, "seed": 4}}`
	startCold := time.Now()
	status, raw := postJSON(t, ts.URL+"/v1/count", body)
	coldT := time.Since(startCold)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, raw)
	}
	startWarm := time.Now()
	status, raw = postJSON(t, ts.URL+"/v1/count", body)
	warmT := time.Since(startWarm)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", status, raw)
	}
	if !decodeCount(t, raw).Cache.Result {
		t.Fatal("warm query missed the result cache")
	}
	if warmT*10 > coldT {
		t.Fatalf("warm %v not 10x faster than cold %v", warmT, coldT)
	}
}

// TestBuildCacheWaiterTimeout: a waiter whose context expires gets
// ctx.Err() while the detached build completes and lands in the cache
// for later callers — a request deadline never poisons the cache.
func TestBuildCacheWaiterTimeout(t *testing.T) {
	c := newBuildCache("t", cacheConfig{maxBytes: 1 << 20}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the wait starts
	gate := make(chan struct{})
	_, _, _, err := c.getOrBuild(ctx, "k", func(context.Context) (any, int64, error) {
		<-gate
		return "value", 5, nil
	})
	if err != context.Canceled {
		t.Fatalf("expired waiter got %v, want context.Canceled", err)
	}
	close(gate)
	// The detached build still completes and is cached.
	deadline := time.Now().Add(5 * time.Second)
	for !c.peek("k") {
		if time.Now().After(deadline) {
			t.Fatal("detached build never landed in the cache")
		}
		time.Sleep(time.Millisecond)
	}
	v, hit, _, err := c.getOrBuild(context.Background(), "k", func(context.Context) (any, int64, error) {
		t.Fatal("rebuilt a cached value")
		return nil, 0, nil
	})
	if err != nil || !hit || v != "value" {
		t.Fatalf("got (%v, %v, %v), want cached value", v, hit, err)
	}
}

// TestGraphSpecKeyStability: distinct specs get distinct keys and
// identical inline edge lists share one.
func TestGraphSpecKeyStability(t *testing.T) {
	a := GraphSpec{Type: "edges", Edges: [][2]uint32{{0, 1}, {1, 2}, {0, 2}}}
	b := GraphSpec{Type: "edges", Edges: [][2]uint32{{0, 1}, {1, 2}, {0, 2}}}
	c := GraphSpec{Type: "edges", Edges: [][2]uint32{{0, 1}, {1, 2}, {0, 3}}}
	if a.Key() != b.Key() {
		t.Fatal("identical edge lists produced different keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("different edge lists share a key")
	}
	r1 := GraphSpec{Type: "rmat", Scale: 10, EdgeFactor: 16, Seed: 1}
	r2 := GraphSpec{Type: "rmat", Scale: 10, EdgeFactor: 16, Seed: 2}
	if r1.Key() == r2.Key() {
		t.Fatal("different seeds share a key")
	}
}

// TestGeneratorEdgeLimits: every generator spec is held to maxGenEdges
// edge samples. A spec at the limit validates; one past it is answered
// 400 on /v1/count and /v1/topk before admission, so nothing is built.
func TestGeneratorEdgeLimits(t *testing.T) {
	cases := []struct {
		name     string
		at, past GraphSpec
	}{
		{"rmat",
			GraphSpec{Type: "rmat", Scale: 22, EdgeFactor: 256},
			GraphSpec{Type: "rmat", Scale: 23, EdgeFactor: 256}},
		{"rmat-max-scale",
			GraphSpec{Type: "rmat", Scale: maxRMATScale, EdgeFactor: 8},
			GraphSpec{Type: "rmat", Scale: maxRMATScale, EdgeFactor: 9}},
		{"rmat-max-both",
			GraphSpec{Type: "rmat", Scale: 22, EdgeFactor: maxEdgeFactor},
			GraphSpec{Type: "rmat", Scale: maxRMATScale, EdgeFactor: maxEdgeFactor}},
		{"chunglu",
			GraphSpec{Type: "chunglu", N: 1 << 20, M: maxGenEdges, Gamma: 2.4},
			GraphSpec{Type: "chunglu", N: 1 << 20, M: maxGenEdges + 1, Gamma: 2.4}},
		{"erdos-renyi",
			GraphSpec{Type: "erdos-renyi", N: 1 << 20, M: maxGenEdges},
			GraphSpec{Type: "erdos-renyi", N: 1 << 20, M: maxGenEdges + 1}},
		// C(1025, 2) + (n - 1025)·1024 edges: 1073741312 and 1073742336.
		{"barabasi-albert",
			GraphSpec{Type: "barabasi-albert", N: 1049088, M: 1024},
			GraphSpec{Type: "barabasi-albert", N: 1049089, M: 1024}},
		// C(4096, 2) + leaves·4096 edges: 1073739776 and 1073743872.
		{"hub-spokes",
			GraphSpec{Type: "hub-spokes", Hubs: 4096, Leaves: 260096, Attach: 4096},
			GraphSpec{Type: "hub-spokes", Hubs: 4096, Leaves: 260097, Attach: 4096}},
		{"hub-spokes-max-leaves",
			GraphSpec{Type: "hub-spokes", Hubs: 4096, Leaves: maxGenVertices / 8, Attach: 7},
			GraphSpec{Type: "hub-spokes", Hubs: 4096, Leaves: maxGenVertices, Attach: 4096}},
	}
	s, ts := newTestServer(t, Config{})
	for _, c := range cases {
		if err := c.at.Validate(false); err != nil {
			t.Errorf("%s at the limit: %v", c.name, err)
		}
		if err := c.past.Validate(false); err == nil {
			t.Errorf("%s past the limit validated", c.name)
		}
		body, err := json.Marshal(CountRequest{Graph: c.past})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/count", "/v1/topk"} {
			status, raw := postJSON(t, ts.URL+path, string(body))
			if status != http.StatusBadRequest {
				t.Fatalf("%s past the limit on %s: status %d, want 400: %s", c.name, path, status, raw)
			}
		}
	}
	if got := s.Metrics().Get("cache.misses"); got != 0 {
		t.Fatalf("rejected specs reached the cache: cache.misses = %d", got)
	}
}

// TestGraphBuildTimed: the cold count's graph build publishes its wall
// time and one build; a warm hit and a no_cache recount (which finds
// the graph cached) publish nothing.
func TestGraphBuildTimed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	met := s.Metrics()
	if met.Get(obs.ServeGraphBuilds) != 0 || met.Get(obs.ServeGraphBuildNS) != 0 {
		t.Fatal("graph build counters nonzero before any request")
	}
	if status, raw := postJSON(t, ts.URL+"/v1/count", rmatBody); status != http.StatusOK {
		t.Fatalf("cold count: status %d: %s", status, raw)
	}
	ns, builds := met.Get(obs.ServeGraphBuildNS), met.Get(obs.ServeGraphBuilds)
	if ns <= 0 || builds != 1 {
		t.Fatalf("after a cold count: %s = %d, %s = %d; want > 0 and 1",
			obs.ServeGraphBuildNS, ns, obs.ServeGraphBuilds, builds)
	}
	noCache := strings.Replace(rmatBody, "}}", `}, "no_cache": true}`, 1)
	for _, body := range []string{rmatBody, noCache} {
		if status, raw := postJSON(t, ts.URL+"/v1/count", body); status != http.StatusOK {
			t.Fatalf("warm count: status %d: %s", status, raw)
		}
		if met.Get(obs.ServeGraphBuildNS) != ns || met.Get(obs.ServeGraphBuilds) != builds {
			t.Fatalf("%s moved the graph build counters", body)
		}
	}
}
