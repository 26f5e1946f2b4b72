package serve

// Tests of the productized streaming path: session modes
// (exact/approx/auto), per-session byte budgets, exact->approx
// degradation, parallel batch preparation, and the lock-free GET
// contract under concurrent ingest and deletion (run under -race by
// `make check`).

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotustc/internal/core"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/sched"
)

func decodeStream(t *testing.T, raw []byte) *StreamState {
	t.Helper()
	var st StreamState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad stream state %s: %v", raw, err)
	}
	return &st
}

// ingestBody marshals an ingest batch.
func ingestBody(t *testing.T, add, remove [][2]uint32) string {
	t.Helper()
	raw, err := json.Marshal(StreamIngestRequest{Add: add, Remove: remove})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestStreamApproxBudgetAndErrorBound is the acceptance test for the
// approximate streaming path: an approx session fed a scale-15 R-MAT
// edge stream must stay within its configured byte budget at every
// poll, and its final estimate must be finite and within the
// reported 95% error bound of the exact triangle count.
func TestStreamApproxBudgetAndErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-15 stream is not a -short test")
	}
	_, ts := newTestServer(t, Config{})
	g := gen.RMAT(gen.DefaultRMAT(15, 16, 11))
	pool := sched.NewPool(0)
	exact := float64(core.Preprocess(g, core.Options{Pool: pool}).Count(pool).Total)

	const budget = 1 << 20 // 1 MiB
	status, raw := postJSON(t, ts.URL+"/v1/stream",
		fmt.Sprintf(`{"mode": "approx", "budget_bytes": %d, "seed": 5}`, budget))
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	st := decodeStream(t, raw)
	if !st.Approx || st.Mode != "approx" {
		t.Fatalf("approx session reports %+v", st)
	}
	if st.BudgetBytes != budget {
		t.Fatalf("budget %d, want %d", st.BudgetBytes, budget)
	}

	edges := g.Edges()
	const batch = 1 << 16
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		add := make([][2]uint32, 0, hi-lo)
		for _, e := range edges[lo:hi] {
			add = append(add, [2]uint32{e.U, e.V})
		}
		status, raw = postJSON(t, ts.URL+"/v1/stream/"+st.ID+"/edges", ingestBody(t, add, nil))
		if status != http.StatusOK {
			t.Fatalf("ingest [%d,%d): status %d: %s", lo, hi, status, raw)
		}
		st = decodeStream(t, raw)
		if st.MemoryBytes > st.BudgetBytes {
			t.Fatalf("after %d edges: resident %d bytes exceeds budget %d", hi, st.MemoryBytes, st.BudgetBytes)
		}
	}
	if st.Edges != uint64(len(edges)) {
		t.Fatalf("session saw %d edges, want %d", st.Edges, len(edges))
	}
	if math.IsNaN(st.Estimate) || math.IsInf(st.Estimate, 0) || st.Estimate < 0 {
		t.Fatalf("estimate %v not finite/non-negative", st.Estimate)
	}
	if st.ErrorBound <= 0 || math.IsInf(st.ErrorBound, 0) {
		t.Fatalf("error bound %v not positive finite", st.ErrorBound)
	}
	if diff := math.Abs(st.Estimate - exact); diff > st.ErrorBound {
		t.Fatalf("estimate %.0f misses exact %.0f by %.0f, outside the reported bound %.0f",
			st.Estimate, exact, diff, st.ErrorBound)
	}
	t.Logf("exact %.0f, estimate %.0f (±%.0f at %.0f%%), reservoir %d/%d, %d bytes of %d",
		exact, st.Estimate, st.ErrorBound, 100*st.Confidence,
		st.ReservoirEdges, st.ReservoirCap, st.MemoryBytes, st.BudgetBytes)
}

// streamEdges maps a graph's edge list into ingest batches.
func graphBatches(g *graph.Graph, batch int) [][][2]uint32 {
	edges := g.Edges()
	var out [][][2]uint32
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		b := make([][2]uint32, 0, hi-lo)
		for _, e := range edges[lo:hi] {
			b = append(b, [2]uint32{e.U, e.V})
		}
		out = append(out, b)
	}
	return out
}

// TestStreamAutoDegrades: an auto session that outgrows its budget
// flips to the estimator instead of refusing ingest — the transition
// is flagged in the state and counted in /metrics, the exact
// structures are released, and ingest keeps working.
func TestStreamAutoDegrades(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	// Budget above the empty universe's footprint but below what the
	// full adjacency needs, so degradation happens mid-stream.
	sc, err := core.NewStreaming(int(1)<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := sc.MemoryBytes() + 8<<10

	status, raw := postJSON(t, ts.URL+"/v1/stream",
		fmt.Sprintf(`{"mode": "auto", "vertices": %d, "budget_bytes": %d, "seed": 9}`, 1<<10, budget))
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	st := decodeStream(t, raw)
	if st.Approx || st.Degraded {
		t.Fatalf("auto session born degraded: %+v", st)
	}
	for _, b := range graphBatches(g, 1<<12) {
		status, raw = postJSON(t, ts.URL+"/v1/stream/"+st.ID+"/edges", ingestBody(t, b, nil))
		if status != http.StatusOK {
			t.Fatalf("auto ingest: status %d: %s", status, raw)
		}
		st = decodeStream(t, raw)
		if st.MemoryBytes > st.BudgetBytes+budgetCheckEvery*32 {
			t.Fatalf("auto session resident %d bytes way over budget %d", st.MemoryBytes, st.BudgetBytes)
		}
	}
	if !st.Degraded || !st.Approx || st.Mode != "auto" {
		t.Fatalf("auto session did not degrade: %+v", st)
	}
	if st.Estimate <= 0 || st.ErrorBound < 0 || math.IsInf(st.Estimate, 0) {
		t.Fatalf("degraded session estimate %v ± %v", st.Estimate, st.ErrorBound)
	}
	if got := s.Metrics().Get("stream.degraded"); got != 1 {
		t.Fatalf("stream.degraded metric = %d, want 1", got)
	}
	ss, ok := s.streams.get(st.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	ss.mu.Lock()
	released := ss.sc == nil
	ss.mu.Unlock()
	if !released {
		t.Fatal("exact structures not released after degradation")
	}
	// Ingest after degradation keeps working and keeps the budget.
	status, raw = postJSON(t, ts.URL+"/v1/stream/"+st.ID+"/edges",
		ingestBody(t, [][2]uint32{{1, 2}, {2, 3}}, nil))
	if status != http.StatusOK {
		t.Fatalf("post-degradation ingest: status %d: %s", status, raw)
	}
	if st = decodeStream(t, raw); st.MemoryBytes > st.BudgetBytes {
		t.Fatalf("degraded session over budget: %d > %d", st.MemoryBytes, st.BudgetBytes)
	}
}

// TestStreamExactOverBudget: an exact session that crosses its
// budget finishes the crossing batch (flagged over_budget), then
// refuses further ingest with 413 instead of growing without bound.
func TestStreamExactOverBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sc, err := core.NewStreaming(1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := sc.MemoryBytes() + 2<<10

	status, raw := postJSON(t, ts.URL+"/v1/stream",
		fmt.Sprintf(`{"mode": "exact", "vertices": %d, "budget_bytes": %d}`, 1<<10, budget))
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	st := decodeStream(t, raw)
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 4))
	batches := graphBatches(g, 1<<11)
	status, raw = postJSON(t, ts.URL+"/v1/stream/"+st.ID+"/edges", ingestBody(t, batches[0], nil))
	if status != http.StatusOK {
		t.Fatalf("crossing batch: status %d: %s", status, raw)
	}
	st = decodeStream(t, raw)
	if !st.OverBudget {
		t.Fatalf("crossing batch not flagged over budget: %+v", st)
	}
	status, raw = postJSON(t, ts.URL+"/v1/stream/"+st.ID+"/edges", ingestBody(t, batches[1], nil))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget ingest: status %d, want 413: %s", status, raw)
	}
	if got := s.Metrics().Get("stream.budget_rejections"); got < 1 {
		t.Fatalf("stream.budget_rejections = %d, want >= 1", got)
	}
	// An exact session whose empty universe alone busts the budget is
	// refused at create time.
	status, raw = postJSON(t, ts.URL+"/v1/stream",
		`{"mode": "exact", "vertices": 1048576, "budget_bytes": 4096}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d, want 413: %s", status, raw)
	}
	// The same universe under auto is admitted, born degraded.
	status, raw = postJSON(t, ts.URL+"/v1/stream",
		`{"mode": "auto", "vertices": 1048576, "budget_bytes": 4096}`)
	if status != http.StatusCreated {
		t.Fatalf("auto oversized create: status %d: %s", status, raw)
	}
	if st = decodeStream(t, raw); !st.Degraded || !st.Approx {
		t.Fatalf("oversized auto session not born degraded: %+v", st)
	}
}

// TestStreamModeValidation: unknown modes 400; the server default
// mode applies when the request names none.
func TestStreamModeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultStreamMode: "approx"})
	status, raw := postJSON(t, ts.URL+"/v1/stream", `{"mode": "sorta"}`)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "sorta") {
		t.Fatalf("bad mode: status %d: %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/v1/stream", `{}`)
	if status != http.StatusCreated {
		t.Fatalf("default-mode create: status %d: %s", status, raw)
	}
	if st := decodeStream(t, raw); st.Mode != "approx" || !st.Approx {
		t.Fatalf("default mode not applied: %+v", st)
	}
}

// TestStreamDuplicateBatchExact: duplicate and reversed edges inside
// one batch are deduplicated before the counter sees them; counts
// match a session fed each edge once.
func TestStreamDuplicateBatchExact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mk := func() *StreamState {
		status, raw := postJSON(t, ts.URL+"/v1/stream", `{"vertices": 64, "hubs": [0, 1], "count_non_hub": true}`)
		if status != http.StatusCreated {
			t.Fatalf("create: %d %s", status, raw)
		}
		return decodeStream(t, raw)
	}
	clean, dirty := mk(), mk()
	edges := [][2]uint32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}, {10, 11}, {11, 12}, {12, 10}}
	var noisy [][2]uint32
	for _, e := range edges {
		noisy = append(noisy, e, [2]uint32{e[1], e[0]}, e, [2]uint32{e[0], e[0]})
	}
	_, rawClean := postJSON(t, ts.URL+"/v1/stream/"+clean.ID+"/edges", ingestBody(t, edges, nil))
	_, rawDirty := postJSON(t, ts.URL+"/v1/stream/"+dirty.ID+"/edges", ingestBody(t, noisy, nil))
	a, b := decodeStream(t, rawClean), decodeStream(t, rawDirty)
	if a.Edges != b.Edges || a.HubTriangles != b.HubTriangles || a.NNN != b.NNN {
		t.Fatalf("duplicate-heavy batch diverged: clean %+v, dirty %+v", a, b)
	}
	if a.Edges != uint64(len(edges)) {
		t.Fatalf("edge count %d, want %d", a.Edges, len(edges))
	}
}

// TestStreamConcurrentIngestPollDelete hammers one exact and one
// approx session with parallel ingest batches (large enough to take
// the parallel preparation path), lock-free GET polling, and a
// DELETE racing mid-batch — the -race gate for the serving stream
// path.
func TestStreamConcurrentIngestPollDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	create := func(body string) string {
		status, raw := postJSON(t, ts.URL+"/v1/stream", body)
		if status != http.StatusCreated {
			t.Fatalf("create: %d %s", status, raw)
		}
		return decodeStream(t, raw).ID
	}
	// Auto with a tight budget so degradation races the pollers too.
	ids := []string{
		create(`{"vertices": 4096, "hubs": [1, 2, 3]}`),
		create(`{"mode": "approx", "budget_bytes": 65536}`),
		create(`{"mode": "auto", "vertices": 4096, "budget_bytes": 262144}`),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for gi, id := range ids {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(id string, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					n := parallelBatchThreshold + 512 // force the parallel path
					add := make([][2]uint32, n)
					for j := range add {
						add[j] = [2]uint32{uint32(rng.Intn(4096)), uint32(rng.Intn(4096))}
					}
					var rem [][2]uint32
					if i%3 == 2 {
						rem = add[:64]
					}
					status, _ := postJSON(t, ts.URL+"/v1/stream/"+id+"/edges", ingestBody(t, add, rem))
					switch status {
					case http.StatusOK, http.StatusNotFound, http.StatusRequestEntityTooLarge:
					default:
						t.Errorf("ingest status %d", status)
						return
					}
				}
			}(id, int64(gi*10+w))
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/stream/" + id)
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("poll status %d", resp.StatusCode)
				}
				readAll(t, resp)
			}
		}(id)
	}
	// Delete the first session mid-flight; its ingesters and pollers
	// must keep getting clean 404s (or finish their in-flight batch).
	time.Sleep(60 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stream/"+ids[0], nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestStreamReadsNeverTear: GET on an exact session racing one writer
// must always return the counters of one whole batch boundary. Every
// read's class split must add up to its hub_triangles and estimate,
// and its (edges, classes) must equal the exact counts of some batch
// prefix — never a mix of two batches or a mid-batch state.
func TestStreamReadsNeverTear(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	do := func(method, path, body string) *StreamState {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			t.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
			return nil
		}
		return decodeStream(t, rec.Body.Bytes())
	}

	g := gen.RMAT(gen.DefaultRMAT(10, 16, 21))
	edges := g.Edges()
	hubs := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	const batch = 512
	var batches [][][2]uint32
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		b := make([][2]uint32, 0, hi-lo)
		for _, e := range edges[lo:hi] {
			b = append(b, [2]uint32{e.U, e.V})
		}
		batches = append(batches, b)
	}
	// The exact counts after every batch prefix, keyed by edge count
	// (edges are distinct, so the count grows with every batch).
	type counts struct{ hhh, hhn, hnn, nnn uint64 }
	prefix := map[uint64]counts{0: {}}
	ref, err := core.NewStreaming(g.NumVertices(), hubs)
	if err != nil {
		t.Fatal(err)
	}
	ref.CountNonHub = true
	for _, b := range batches {
		for _, e := range b {
			ref.AddEdge(e[0], e[1])
		}
		hhh, hhn, hnn, nnn := ref.Classes()
		prefix[ref.Edges()] = counts{hhh, hhn, hnn, nnn}
	}

	body, _ := json.Marshal(StreamCreateRequest{Vertices: g.NumVertices(), Hubs: hubs, CountNonHub: true, Mode: "exact"})
	st := do(http.MethodPost, "/v1/stream", string(body))
	if st == nil {
		t.FailNow()
	}
	path := "/v1/stream/" + st.ID

	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := do(http.MethodGet, path, "")
				if st == nil {
					return
				}
				reads.Add(1)
				if st.HubTriangles != st.HHH+st.HHN+st.HNN {
					t.Errorf("torn class split: hub_triangles %d != %d+%d+%d", st.HubTriangles, st.HHH, st.HHN, st.HNN)
					return
				}
				if st.Estimate != float64(st.HubTriangles+st.NNN) {
					t.Errorf("torn estimate: %v != %d+%d", st.Estimate, st.HubTriangles, st.NNN)
					return
				}
				want, ok := prefix[st.Edges]
				if !ok {
					t.Errorf("read %d edges: not a batch boundary", st.Edges)
					return
				}
				if got := (counts{st.HHH, st.HHN, st.HNN, st.NNN}); got != want {
					t.Errorf("read at %d edges: classes %+v, batch prefix has %+v", st.Edges, got, want)
					return
				}
			}
		}()
	}
	for _, b := range batches {
		if do(http.MethodPost, path+"/edges", ingestBody(t, b, nil)) == nil {
			break
		}
	}
	close(done)
	wg.Wait()
	if final := do(http.MethodGet, path, ""); final != nil {
		want := prefix[ref.Edges()]
		if final.Edges != ref.Edges() || (counts{final.HHH, final.HHN, final.HNN, final.NNN}) != want {
			t.Fatalf("final state %+v, want %d edges and %+v", final, ref.Edges(), want)
		}
	}
	if reads.Load() == 0 {
		t.Fatal("no reads raced the writer")
	}
}

// TestPrepareBatchParallelMatchesSerial: the hash-partitioned
// parallel preparation path produces exactly the serial path's edge
// set (as a set — partition order is unspecified).
func TestPrepareBatchParallelMatchesSerial(t *testing.T) {
	par := New(Config{Workers: 4})
	ser := New(Config{Workers: 1})
	rng := rand.New(rand.NewSource(8))
	edges := make([][2]uint32, parallelBatchThreshold*3)
	for i := range edges {
		edges[i] = [2]uint32{uint32(rng.Intn(512)), uint32(rng.Intn(512))}
	}
	collect := func(s *Server) map[[2]uint32]int {
		b := s.prepareBatch(edges)
		defer b.release()
		got := map[[2]uint32]int{}
		b.each(func(u, v uint32) { got[[2]uint32{u, v}]++ })
		return got
	}
	pm, sm := collect(par), collect(ser)
	if len(pm) != len(sm) {
		t.Fatalf("parallel kept %d edges, serial %d", len(pm), len(sm))
	}
	for e, n := range pm {
		if n != 1 {
			t.Fatalf("edge %v emitted %d times", e, n)
		}
		if e[0] >= e[1] {
			t.Fatalf("edge %v not canonical", e)
		}
		if sm[e] != 1 {
			t.Fatalf("edge %v missing from serial path", e)
		}
	}
}
