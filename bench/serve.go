package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lotustc/internal/gen"
	"lotustc/internal/obs"
	"lotustc/internal/serve"
)

const (
	// topK is the k of every /v1/topk request.
	topK = 10
	// estimateP is the hybrid estimator's NNN sampling rate, and
	// estimateTolerance the relative error an estimate may show before
	// it counts as wrong. The hybrid estimate is exact on hub
	// triangles, so its error is a sampled share of the NNN ones.
	estimateP         = 0.5
	estimateTolerance = 0.25
	// approxBudget is the byte budget of every approx stream session.
	approxBudget = 1 << 20
)

// serveConfig is the server both serve workloads run: the compressed
// cache tier on a 24 MiB budget, defaults otherwise. Workers default
// to GOMAXPROCS.
func serveConfig() serve.Config {
	return serve.Config{CompressCache: true, CacheBytes: 24 << 20}
}

// server is lotus-serve's handler mounted on an in-process loopback
// listener, with a client allowed as many connections as the workload
// has client goroutines.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
	dir string // session data directory, "" without durability
}

// startServer boots a server. durable gives it a session WAL in a
// temporary directory under the work directory, with fsync off so
// disk noise stays out of the timings.
func (b *bench) startServer(durable bool, conns int) (*server, error) {
	cfg := serveConfig()
	s := &server{}
	if durable {
		dir, err := os.MkdirTemp(b.cfg.workDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("session data directory: %w", err)
		}
		cfg.DataDir, cfg.WALSync, s.dir = dir, "none", dir
	}
	s.srv = serve.New(cfg)
	if durable {
		// An empty directory has nothing to replay; Recover only flips
		// the server to ready.
		s.srv.Recover()
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return s, nil
}

func (s *server) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// call sends one request and decodes a 2xx JSON answer into out.
func (s *server) call(method, path string, body []byte, out any) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return nil
}

// request times one call and records it as a span.
func (b *bench) request(s *server, tr *tracer, spanName, method, path string, body []byte, out any) (time.Duration, error) {
	sp := tr.start(spanName, 0, b.nextOp())
	t0 := time.Now()
	err := s.call(method, path, body, out)
	d := time.Since(t0)
	tr.finish(sp)
	return d, err
}

// countReply is the part of a /v1/count answer the benchmark checks.
type countReply struct {
	Triangles uint64          `json:"triangles"`
	Classes   *obs.Classes    `json:"classes"`
	Cache     serve.CacheInfo `json:"cache"`
}

// queryTarget is one graph the serve workloads query, with its
// request bodies encoded once and its per-vertex reference.
type queryTarget struct {
	in                   graphInput
	warm, nocache, topkB []byte
	per                  []uint64
	top                  []uint64
}

func newQueryTarget(in graphInput) queryTarget {
	t := queryTarget{in: in, per: perVertexTriangles(in.g)}
	t.top = topCounts(t.per, topK)
	t.warm, _ = json.Marshal(serve.CountRequest{Graph: in.spec})
	t.nocache, _ = json.Marshal(serve.CountRequest{Graph: in.spec, NoCache: true})
	t.topkB, _ = json.Marshal(serve.TopKRequest{Graph: in.spec, K: topK})
	return t
}

func (t *queryTarget) estimateBody(seed int64) []byte {
	body, _ := json.Marshal(serve.EstimateRequest{Graph: t.in.spec, Method: "hybrid", P: estimateP, Seed: seed})
	return body
}

func (b *bench) checkCount(name string, err error, r *countReply, ref uint64) bool {
	if err != nil {
		return b.tally.check(false, "%s: %v", name, err)
	}
	return b.tally.check(r.Triangles == ref && classesMatch(r.Classes, r.Triangles),
		"%s: /v1/count = %d (classes %+v), reference %d", name, r.Triangles, r.Classes, ref)
}

func (b *bench) checkTopK(name string, err error, r *serve.TopKResponse, t *queryTarget) bool {
	if err != nil {
		return b.tally.check(false, "%s: %v", name, err)
	}
	ok := len(r.Vertices) == len(t.top)
	for i := 0; ok && i < len(r.Vertices); i++ {
		vc := r.Vertices[i]
		ok = int(vc.Vertex) < len(t.per) && t.per[vc.Vertex] == vc.Triangles && vc.Triangles == t.top[i]
	}
	return b.tally.check(ok, "%s: /v1/topk = %+v, reference counts %v", name, r.Vertices, t.top)
}

func (b *bench) checkEstimate(name string, err error, r *serve.EstimateResponse, ref uint64) bool {
	if err != nil {
		return b.tally.check(false, "%s: %v", name, err)
	}
	rel := math.Abs(r.Estimate-float64(ref)) / math.Max(float64(ref), 1)
	return b.tally.check(rel <= estimateTolerance, "%s: /v1/estimate = %g, reference %d", name, r.Estimate, ref)
}

// serveLayers holds what a serving loop measured per request class.
type serveLayers struct {
	lat                 map[string][]time.Duration
	all                 []time.Duration
	graphHit, graphMiss int64 // result-cache misses whose graph was / was not resident
}

func (s *serveLayers) add(class string, d time.Duration) {
	if s.lat == nil {
		s.lat = map[string][]time.Duration{}
	}
	s.lat[class] = append(s.lat[class], d)
	s.all = append(s.all, d)
}

func (s *serveLayers) merge(o serveLayers) {
	for class, ds := range o.lat {
		for _, d := range ds {
			s.add(class, d)
		}
	}
	s.graphHit += o.graphHit
	s.graphMiss += o.graphMiss
}

func (s *serveLayers) noteGraph(hit bool) {
	if hit {
		s.graphHit++
	} else {
		s.graphMiss++
	}
}

// metrics writes the per-class latency metrics and their sample
// counts.
func (s *serveLayers) metrics(v map[string]float64, samples map[string]int) {
	p50 := func(name, class string, unit func(time.Duration) float64) {
		v[name] = unit(quantile(s.lat[class], 0.5))
		samples[name] = len(s.lat[class])
	}
	p50("serve.warm_p50_us", "warm", us)
	p50("serve.cold_p50_ms", "cold", ms)
	p50("serve.nocache_p50_ms", "nocache", ms)
	p50("serve.topk_p50_ms", "topk", ms)
	p50("serve.estimate_p50_ms", "estimate", ms)
	v["serve.request_p99_ms"] = ms(quantile(s.all, 0.99))
	samples["serve.request_p99_ms"] = len(s.all)
	v["cache.graph_hit_ratio"] = ratio(float64(s.graphHit), float64(s.graphHit+s.graphMiss))
}

// cacheMetrics writes the server counter deltas between two
// snapshots, per thousand requests so runs of different lengths
// compare.
func cacheMetrics(v map[string]float64, before, after map[string]int64, requests int) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	perK := func(name string) float64 { return ratio(1000*d(name), float64(requests)) }
	v["cache.result_hit_ratio"] = ratio(d("result.hits"), d("result.hits")+d("result.misses"))
	v["cache.builds"] = perK("cache.builds")
	v["cache.demotions"] = perK("cache.demotions")
	v["cache.rehydrations"] = perK("cache.rehydrations")
	v["cache.evictions"] = perK("cache.evictions")
	v["serve.rejected"] = d("serve.rejected")
}

// rmatTargets generates R-MAT specs at the serve scale from the given
// seeds and computes their references. It returns the time spent
// generating the graphs.
func (b *bench) rmatTargets(seeds []int64) ([]queryTarget, time.Duration) {
	out := make([]queryTarget, len(seeds))
	s := b.cfg.size
	var genTime time.Duration
	for i, seed := range seeds {
		t0 := time.Now()
		in := graphInput{
			name: fmt.Sprintf("rmat-s%d-%d", s.serveScale, seed),
			g:    gen.RMAT(gen.DefaultRMAT(s.serveScale, s.edgeFactor, seed)),
			spec: serve.GraphSpec{Type: "rmat", Scale: s.serveScale, EdgeFactor: s.edgeFactor, Seed: seed},
		}
		genTime += time.Since(t0)
		in.ref = b.reference(in.g)
		out[i] = newQueryTarget(in)
	}
	return out, genTime
}

// prefill boots a server and counts the hot set once, so the timed
// phase starts with the hot set resident. It is the serve workloads'
// set-up; it runs setupReps times and keeps the last server.
func (b *bench) prefill(hot []queryTarget, durable bool, conns int, prep *prepStats) (*server, error) {
	var srv *server
	for r := 0; r < b.cfg.size.setupReps; r++ {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		var err error
		if srv, err = b.startServer(durable, conns); err != nil {
			return nil, err
		}
		for i := range hot {
			var rep countReply
			err := srv.call("POST", "/v1/count", hot[i].warm, &rep)
			b.checkCount(hot[i].in.name+" prefill", err, &rep, hot[i].in.ref)
		}
		prep.setup = append(prep.setup, time.Since(t0))
	}
	return srv, nil
}

// ---------------------------------------------------------------
// serve-query: a closed loop of nproc clients over a fixed mix.

// The serve-query mix, as cumulative shares of requests. Cold counts
// are the slowest class; at exactly 10% of the mix the p90 sat on the
// edge between them and the next class and jumped between the two from
// seed to seed, so they take 15% and the p90 falls inside them.
const (
	mixWarm    = 0.65 // memoized /v1/count over the hot set
	mixCold    = 0.80 // /v1/count of a seed the server has never seen
	mixNoCache = 0.90 // no_cache recount over the hot set
	mixTopK    = 0.95 // /v1/topk over the hot set
	// The remaining 5% is /v1/estimate (hybrid) over the hot set.
)

// coldSeedBase is above every hot seed (those are below 2^40), so no
// cold spec ever names a graph the server has seen. Each run seed owns
// 2^24 cold seeds above it.
const coldSeedBase = 1 << 41

type serveQuery struct {
	b       *bench
	hot     []queryTarget
	srv     *server
	clients int
	coldSeq atomic.Int64 // cold seeds count up from coldSeedBase + seed<<24
}

func newServeQuery(b *bench) (workload, prepStats, error) {
	var prep prepStats
	rng := rand.New(rand.NewSource(b.cfg.seed))
	seeds := make([]int64, b.cfg.size.hotSet)
	for i := range seeds {
		seeds[i] = rng.Int63n(1 << 40)
	}
	w := &serveQuery{b: b, clients: b.nproc}
	var genTime time.Duration
	w.hot, genTime = b.rmatTargets(seeds)
	prep.gen = append(prep.gen, genTime)
	var err error
	if w.srv, err = b.prefill(w.hot, false, w.clients, &prep); err != nil {
		return nil, prep, err
	}
	return w, prep, nil
}

// coldResult is a cold count whose reference is computed after the
// timed phase, since its graph is new to everyone.
type coldResult struct {
	seed  int64
	reply countReply
}

type queryClient struct {
	serveLayers
	requests int64
	edges    int64
	cold     []coldResult
}

func (w *serveQuery) loop(d time.Duration, tr *tracer) phaseStats {
	before := w.srv.srv.Metrics().Snapshot()
	alloc0 := totalAlloc()
	start := time.Now()
	res := make([]queryClient, w.clients)
	var wg sync.WaitGroup
	for c := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[c] = w.client(c, start, d, tr)
		}()
	}
	wg.Wait()
	st := phaseStats{wall: time.Since(start), alloc: totalAlloc() - alloc0}
	after := w.srv.srv.Metrics().Snapshot()

	var sl serveLayers
	var cold []coldResult
	for _, r := range res {
		sl.merge(r.serveLayers)
		st.requests += r.requests
		st.edges += r.edges
		cold = append(cold, r.cold...)
	}
	st.edges += w.verifyCold(cold)
	st.latency = sl.all
	st.layer = map[string]float64{}
	st.samples = map[string]int{}
	sl.metrics(st.layer, st.samples)
	cacheMetrics(st.layer, before, after, len(sl.all))
	return st
}

func (w *serveQuery) client(c int, start time.Time, d time.Duration, tr *tracer) queryClient {
	var qc queryClient
	b := w.b
	rng := rand.New(rand.NewSource(b.cfg.seed + int64(c)))
	for time.Since(start) < d {
		r := rng.Float64()
		t := &w.hot[rng.Intn(len(w.hot))]
		name := t.in.name
		switch {
		case r < mixWarm:
			var rep countReply
			lat, err := b.request(w.srv, tr, "serve.warm", "POST", "/v1/count", t.warm, &rep)
			b.checkCount(name+" warm", err, &rep, t.in.ref)
			qc.add("warm", lat)
			qc.edges += t.in.g.NumEdges()
		case r < mixCold:
			seed := coldSeedBase + b.cfg.seed<<24 + w.coldSeq.Add(1)
			s := b.cfg.size
			body, _ := json.Marshal(serve.CountRequest{Graph: serve.GraphSpec{
				Type: "rmat", Scale: s.serveScale, EdgeFactor: s.edgeFactor, Seed: seed}})
			var rep countReply
			lat, err := b.request(w.srv, tr, "serve.cold", "POST", "/v1/count", body, &rep)
			if err != nil {
				b.tally.check(false, "cold seed %d: %v", seed, err)
			} else {
				qc.cold = append(qc.cold, coldResult{seed, rep})
				qc.noteGraph(rep.Cache.Graph)
			}
			qc.add("cold", lat)
		case r < mixNoCache:
			var rep countReply
			lat, err := b.request(w.srv, tr, "serve.nocache", "POST", "/v1/count", t.nocache, &rep)
			if b.checkCount(name+" no_cache", err, &rep, t.in.ref) {
				qc.noteGraph(rep.Cache.Graph)
			}
			qc.add("nocache", lat)
			qc.edges += t.in.g.NumEdges()
		case r < mixTopK:
			var rep serve.TopKResponse
			lat, err := b.request(w.srv, tr, "serve.topk", "POST", "/v1/topk", t.topkB, &rep)
			if b.checkTopK(name+" topk", err, &rep, t) {
				qc.noteGraph(rep.Cache.Graph)
			}
			qc.add("topk", lat)
			qc.edges += t.in.g.NumEdges()
		default:
			var rep serve.EstimateResponse
			lat, err := b.request(w.srv, tr, "serve.estimate", "POST", "/v1/estimate", t.estimateBody(rng.Int63n(1<<30)+1), &rep)
			if b.checkEstimate(name+" estimate", err, &rep, t.in.ref) {
				qc.noteGraph(rep.Cache.Graph)
			}
			qc.add("estimate", lat)
			qc.edges += t.in.g.NumEdges()
		}
		qc.requests++
	}
	return qc
}

// verifyCold checks every cold count against a reference computed now,
// after the timed phase, on nproc goroutines. It returns the edges of
// the graphs those requests counted.
func (w *serveQuery) verifyCold(cold []coldResult) int64 {
	var next, edges atomic.Int64
	var wg sync.WaitGroup
	s := w.b.cfg.size
	for range w.b.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(cold)); i = next.Add(1) - 1 {
				c := &cold[i]
				g := gen.RMAT(gen.DefaultRMAT(s.serveScale, s.edgeFactor, c.seed))
				ref := w.b.reference(g)
				w.b.checkCount(fmt.Sprintf("cold seed %d", c.seed), nil, &c.reply, ref)
				edges.Add(g.NumEdges())
			}
		}()
	}
	wg.Wait()
	return edges.Load()
}

func (w *serveQuery) censusInput() censusInput {
	graphs := make([]graphInput, len(w.hot))
	for i := range w.hot {
		graphs[i] = w.hot[i].in
	}
	return censusInput{graphs: graphs, stream: graphs[0]}
}

func (w *serveQuery) close() { w.srv.close() }

// ---------------------------------------------------------------
// Stream sessions.

// streamer streams one graph's edges into a pair of sessions: an
// exact one (top-degree hubs, NNN counted too) and an approx one.
// Each ingest batch goes to the exact session, then to the approx one.
type streamer struct {
	in     graphInput
	hubs   []uint32
	bodies [][]byte // encoded ingest requests, one per batch
	sizes  []int    // edges per batch
}

func newStreamer(in graphInput, s sizes, seed int64) *streamer {
	st := &streamer{in: in, hubs: topHubs(in.g, s.streamHubs)}
	for _, batch := range chunks(streamEdges(in.g, seed), s.batch) {
		body, _ := json.Marshal(serve.StreamIngestRequest{Add: batch})
		st.bodies = append(st.bodies, body)
		st.sizes = append(st.sizes, len(batch))
	}
	return st
}

// streamRound is what one pass over the stream measured.
type streamRound struct {
	exactID, approxID string
	exact, approx     []time.Duration // per ingest request
	pair              []time.Duration // per batch: both requests
	edges             int64           // acknowledged edges, both sessions
	relErr            float64         // approx session estimate vs reference
	walBytes          int64           // session data on disk at the end
}

// round creates both sessions, streams every batch into them and
// checks their final states. publish, when set, hands the exact
// session's ID to a concurrent reader. The caller deletes the
// sessions.
func (st *streamer) round(b *bench, srv *server, tr *tracer, seed int64, publish func(string)) (streamRound, bool) {
	var r streamRound
	name := st.in.name
	var ex, ap serve.StreamState
	body, _ := json.Marshal(serve.StreamCreateRequest{Mode: "exact", Vertices: st.in.g.NumVertices(), Hubs: st.hubs, CountNonHub: true})
	if !b.tally.check(srv.call("POST", "/v1/stream", body, &ex) == nil, "%s: creating the exact session failed", name) {
		return r, false
	}
	r.exactID = ex.ID
	body, _ = json.Marshal(serve.StreamCreateRequest{Mode: "approx", BudgetBytes: approxBudget, Seed: seed})
	if !b.tally.check(srv.call("POST", "/v1/stream", body, &ap) == nil, "%s: creating the approx session failed", name) {
		return r, false
	}
	r.approxID = ap.ID
	if publish != nil {
		publish(ex.ID)
	}
	var acked uint64
	for i, body := range st.bodies {
		op := b.nextOp()
		var es, as serve.StreamState
		t0 := time.Now()
		sp := tr.start("stream.ingest_exact", 0, op)
		errE := srv.call("POST", "/v1/stream/"+ex.ID+"/edges", body, &es)
		tr.finish(sp)
		t1 := time.Now()
		sp = tr.start("stream.ingest_approx", 0, op)
		errA := srv.call("POST", "/v1/stream/"+ap.ID+"/edges", body, &as)
		tr.finish(sp)
		t2 := time.Now()
		acked += uint64(st.sizes[i])
		// The streamed edges are distinct, so the exact session's edge
		// count after each batch is known.
		b.tally.check(errE == nil && es.Edges == acked && es.HHH+es.HHN+es.HNN == es.HubTriangles,
			"%s: exact ingest batch %d: err %v, edges %d (want %d)", name, i, errE, es.Edges, acked)
		b.tally.check(errA == nil, "%s: approx ingest batch %d: %v", name, i, errA)
		r.exact = append(r.exact, t1.Sub(t0))
		r.approx = append(r.approx, t2.Sub(t1))
		r.pair = append(r.pair, t2.Sub(t0))
		r.edges += 2 * int64(st.sizes[i])
	}
	err := srv.call("GET", "/v1/stream/"+ex.ID, nil, &ex)
	b.tally.check(err == nil && ex.HHH+ex.HHN+ex.HNN+ex.NNN == st.in.ref && ex.Edges == acked,
		"%s: final exact session: err %v, classes %d/%d/%d/%d, edges %d; reference %d triangles, %d edges",
		name, err, ex.HHH, ex.HHN, ex.HNN, ex.NNN, ex.Edges, st.in.ref, acked)
	err = srv.call("GET", "/v1/stream/"+ap.ID, nil, &ap)
	b.tally.check(err == nil && ap.Estimate >= 0 && !math.IsInf(ap.Estimate, 0) && !math.IsNaN(ap.Estimate),
		"%s: final approx session: err %v, estimate %g", name, err, ap.Estimate)
	r.relErr = math.Abs(ap.Estimate-float64(st.in.ref)) / math.Max(float64(st.in.ref), 1)
	if srv.dir != "" {
		r.walBytes = dirBytes(srv.dir)
	}
	return r, true
}

// deleteSessions removes a round's sessions and their files.
func (b *bench) deleteSessions(srv *server, r streamRound) {
	for _, id := range []string{r.exactID, r.approxID} {
		if id != "" {
			err := srv.call("DELETE", "/v1/stream/"+id, nil, nil)
			b.tally.check(err == nil, "deleting session %s: %v", id, err)
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// ---------------------------------------------------------------
// serve-stream: one writer streaming into fresh sessions each round,
// one reader polling the live session and re-querying the hot set.

type serveStream struct {
	b   *bench
	st  *streamer
	hot []queryTarget
	srv *server

	mu   sync.RWMutex // guards live against the writer deleting it
	live string       // exact session the reader polls, "" between rounds
}

func newServeStream(b *bench) (workload, prepStats, error) {
	var prep prepStats
	s := b.cfg.size
	rng := rand.New(rand.NewSource(b.cfg.seed))
	streamSeed := rng.Int63n(1 << 40)
	seeds := make([]int64, s.hotSet)
	for i := range seeds {
		seeds[i] = rng.Int63n(1 << 40)
	}
	t0 := time.Now()
	in := graphInput{
		name: fmt.Sprintf("rmat-s%d-%d", s.streamScale, streamSeed),
		g:    gen.RMAT(gen.DefaultRMAT(s.streamScale, s.edgeFactor, streamSeed)),
		spec: serve.GraphSpec{Type: "rmat", Scale: s.streamScale, EdgeFactor: s.edgeFactor, Seed: streamSeed},
	}
	prep.gen = append(prep.gen, time.Since(t0))
	in.ref = b.reference(in.g)
	w := &serveStream{b: b, st: newStreamer(in, s, b.cfg.seed)}
	w.hot, _ = b.rmatTargets(seeds)
	var err error
	if w.srv, err = b.prefill(w.hot, true, 2, &prep); err != nil {
		return nil, prep, err
	}
	return w, prep, nil
}

func (w *serveStream) loop(d time.Duration, tr *tracer) phaseStats {
	before := w.srv.srv.Metrics().Snapshot()
	alloc0 := totalAlloc()
	start := time.Now()
	done := make(chan struct{})
	var rounds []streamRound
	var reads serveLayers
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		rounds = w.writer(start, d, tr)
	}()
	go func() {
		defer wg.Done()
		reads = w.reader(done, tr)
	}()
	wg.Wait()
	st := phaseStats{wall: time.Since(start), alloc: totalAlloc() - alloc0}
	after := w.srv.srv.Metrics().Snapshot()

	var exact, approx []time.Duration
	var relErr []float64
	var walPerEdge float64
	for _, r := range rounds {
		st.latency = append(st.latency, r.pair...)
		st.edges += r.edges
		exact = append(exact, r.exact...)
		approx = append(approx, r.approx...)
		relErr = append(relErr, r.relErr)
		walPerEdge = ratio(float64(r.walBytes), float64(r.edges))
	}
	st.requests = int64(len(reads.all))
	st.layer = map[string]float64{
		"stream.ingest_exact_p50_ms":  ms(quantile(exact, 0.5)),
		"stream.ingest_approx_p50_ms": ms(quantile(approx, 0.5)),
		"stream.get_p50_us":           us(quantile(reads.lat["get"], 0.5)),
		"serve.warm_p50_us":           us(quantile(reads.lat["warm"], 0.5)),
		"serve.request_p99_ms":        ms(quantile(reads.all, 0.99)),
		"serve.rejected":              float64(after["serve.rejected"] - before["serve.rejected"]),
		"wal.bytes_per_edge":          walPerEdge,
		"stream.snapshots":            ratio(1e6*float64(after["stream.snapshots"]-before["stream.snapshots"]), float64(st.edges)),
		"approx.rel_error":            median(relErr),
	}
	st.samples = map[string]int{
		"stream.ingest_exact_p50_ms":  len(exact),
		"stream.ingest_approx_p50_ms": len(approx),
		"stream.get_p50_us":           len(reads.lat["get"]),
		"serve.warm_p50_us":           len(reads.lat["warm"]),
		"serve.request_p99_ms":        len(reads.all),
	}
	return st
}

// writer streams whole rounds until d has passed; the round in flight
// at the deadline is finished, so every round counts in full.
func (w *serveStream) writer(start time.Time, d time.Duration, tr *tracer) []streamRound {
	var rounds []streamRound
	publish := func(id string) {
		w.mu.Lock()
		w.live = id
		w.mu.Unlock()
	}
	for time.Since(start) < d {
		r, ok := w.st.round(w.b, w.srv, tr, int64(len(rounds))+1, publish)
		publish("")
		w.b.deleteSessions(w.srv, r)
		if !ok {
			break
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// reader alternates reads of the live exact session with warm
// /v1/count hits over the hot set, with no think time, until the
// writer is done.
func (w *serveStream) reader(done <-chan struct{}, tr *tracer) serveLayers {
	var sl serveLayers
	b := w.b
	for i := 0; ; i++ {
		select {
		case <-done:
			return sl
		default:
		}
		if i%2 == 0 {
			w.mu.RLock()
			if id := w.live; id != "" {
				// A read during ingest loads the counters one by one, so
				// the class split may lag the total by the edges applied
				// in between; only the final state is checked exactly.
				var s serve.StreamState
				lat, err := b.request(w.srv, tr, "stream.get", "GET", "/v1/stream/"+id, nil, &s)
				b.tally.check(err == nil && s.Edges <= uint64(w.st.in.g.NumEdges()),
					"reading session %s: err %v, state %+v", id, err, s)
				sl.add("get", lat)
			}
			w.mu.RUnlock()
			continue
		}
		t := &w.hot[(i/2)%len(w.hot)]
		var rep countReply
		lat, err := b.request(w.srv, tr, "serve.warm", "POST", "/v1/count", t.warm, &rep)
		b.checkCount(t.in.name+" warm", err, &rep, t.in.ref)
		sl.add("warm", lat)
	}
}

func (w *serveStream) censusInput() censusInput {
	return censusInput{graphs: []graphInput{w.st.in}, stream: w.st.in}
}

func (w *serveStream) close() { w.srv.close() }
