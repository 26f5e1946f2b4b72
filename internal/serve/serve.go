// Package serve implements lotus-serve: a resident triangle-counting
// service over the engine registry. The point of a long-lived process
// is amortization — LOTUS preprocessing averages ~20% of end-to-end
// time (Fig 6) and graph generation/loading dwarfs even that — so the
// server keeps a size-bounded LRU of built graphs and preprocessed
// LOTUS grids — a plan entry plus one entry per shard, the flat
// structure being the one-shard grid — keyed by (graph spec, hub
// count, relabeling options, grid dimension), deduplicates concurrent cold builds with single-flight,
// and memoizes exact count reports.
//
// Robustness is the other half of the design: every request is
// validated before it allocates, bounded by a per-request timeout
// through the engine's cooperative-cancellation path, admitted
// through a concurrency semaphore with a bounded wait queue, and any
// panic that escapes the layers below is converted to a JSON 500
// while the process keeps serving. /healthz and /metrics expose
// liveness and the obs counter registry (cache hits/misses/evictions,
// queue depth, per-request phase timings).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lotustc/internal/core"
	"lotustc/internal/engine"
	"lotustc/internal/faults"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
	"lotustc/internal/tune"
)

// Config tunes a Server. The zero value is usable: every field has a
// production-lean default.
type Config struct {
	// CacheBytes budgets the graph + LOTUS structure LRU (default
	// 1 GiB).
	CacheBytes int64
	// CompressCache enables the compressed residency tier: decoded
	// graphs evicted from the cache are demoted to their
	// varint-compressed payloads (charged at SizeBytes()) instead of
	// dying, and a later request decompresses on demand into a pooled
	// arena. At a fixed CacheBytes budget this keeps several times
	// more graphs resident.
	CompressCache bool
	// DemoteWatermark splits CacheBytes when CompressCache is on: the
	// decoded tier keeps this fraction of the budget and the
	// compressed tier gets the remainder (default 0.5). Lower values
	// favor many compressed residents over few decoded ones.
	DemoteWatermark float64
	// MaxStructureBytes caps the estimated size of a single resident
	// LOTUS structure (default CacheBytes; with CompressCache on, the
	// decoded tier's budget, since only that tier can hold a decoded
	// structure). A "lotus" count whose flat structure (the p = 1
	// grid) would exceed it is routed through a wider grid instead:
	// per-shard structures are cached as independent LRU entries, so
	// graphs too big for one cacheable structure are still served
	// warm.
	MaxStructureBytes int64
	// ResultEntries budgets the memoized exact-count reports (default
	// 512).
	ResultEntries int
	// MaxConcurrent bounds counting work admitted at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for admission; excess gets 429
	// (default 64).
	MaxQueue int
	// DefaultTimeout applies when a request names none (default 60s);
	// MaxTimeout clamps what a request may ask for (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Workers is the per-count scheduler width (0 = GOMAXPROCS).
	Workers int
	// AllowFiles permits {"type":"file"} graph specs.
	AllowFiles bool
	// Stream session limits.
	MaxStreams        int // concurrent sessions (default 64)
	MaxStreamVertices int // vertex universe per session (default 2^22)
	MaxStreamHubs     int // hubs per session (default 2^14)
	MaxStreamBatch    int // edges per ingest request (default 2^20)
	// MaxStreamBytes caps one stream session's resident bytes
	// (default 256 MiB). Exact sessions that cross it refuse further
	// ingest; auto sessions degrade to the bounded-memory estimator.
	MaxStreamBytes int64
	// DefaultStreamMode applies when a create request names no mode:
	// "exact", "approx" or "auto" (default "exact").
	DefaultStreamMode string
	// DataDir enables crash-safe session durability: every stream
	// session gets an append-only WAL plus periodic snapshots under
	// this directory, and Recover replays them at startup. Empty
	// disables persistence (the prior behavior).
	DataDir string
	// WALSync is the WAL fsync policy: "always" (default; fsync every
	// appended batch) or "none" (leave flushing to the OS — faster,
	// but a host crash can lose recent batches; a process crash
	// cannot).
	WALSync string
	// SnapshotBytes is the live-WAL size that triggers a snapshot +
	// WAL rotation (default 1 MiB). Smaller bounds recovery replay
	// tighter; larger amortizes snapshot cost over more batches.
	SnapshotBytes int64
	// DebugFaults mounts the /debug/faults endpoint for runtime fault
	// injection. Never enable it on a production listener.
	DebugFaults bool
	// DefaultAlgorithm applies when a count request names none
	// (default "auto": the structural tuner probes the graph once and
	// routes to the algorithm its shape favors). Set "lotus" to
	// restore the fixed pre-tuner behavior.
	DefaultAlgorithm string
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 1 << 30
	}
	if c.CompressCache && (c.DemoteWatermark <= 0 || c.DemoteWatermark >= 1) {
		c.DemoteWatermark = defaultDemoteWatermark
	}
	if c.MaxStructureBytes <= 0 {
		c.MaxStructureBytes = c.CacheBytes
		if c.CompressCache {
			c.MaxStructureBytes = cacheConfig{maxBytes: c.CacheBytes, compress: true, watermark: c.DemoteWatermark}.decodedBudget()
		}
	}
	if c.ResultEntries <= 0 {
		c.ResultEntries = 512
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 64
	}
	if c.MaxStreamVertices <= 0 {
		c.MaxStreamVertices = 1 << 22
	}
	if c.MaxStreamHubs <= 0 {
		c.MaxStreamHubs = 1 << 14
	}
	if c.MaxStreamBatch <= 0 {
		c.MaxStreamBatch = 1 << 20
	}
	if c.MaxStreamBytes <= 0 {
		c.MaxStreamBytes = 256 << 20
	}
	if c.DefaultStreamMode == "" {
		c.DefaultStreamMode = "exact"
	}
	if c.WALSync == "" {
		c.WALSync = "always"
	}
	if c.SnapshotBytes <= 0 {
		c.SnapshotBytes = 1 << 20
	}
	if c.DefaultAlgorithm == "" {
		c.DefaultAlgorithm = "auto"
	}
	return c
}

// Server is the resident counting service. Create with New, mount
// Handler on an http.Server, and call BeginDrain before shutting the
// http.Server down so /healthz flips to draining while in-flight
// requests finish.
type Server struct {
	cfg   Config
	met   *obs.Metrics
	cache *buildCache // "graph:", "tune:" and LOTUS grid entries share one budget

	resMu   sync.Mutex
	results *lru // result memoization: key -> *cachedResult

	// scratch recycles per-worker kernel scratch across lotus counts
	// so warm-structure counts reuse their bitmaps instead of
	// allocating them per request.
	scratch sync.Pool // *core.CountScratch

	sem      chan struct{}
	queued   atomic.Int64
	active   atomic.Int64
	draining atomic.Bool
	started  time.Time

	// recovering gates the session endpoints and /readyz while Recover
	// replays persisted sessions; it starts true when DataDir is set
	// and flips false exactly once, when Recover returns.
	recovering atomic.Bool
	dur        *durability

	streams *streamRegistry
	mux     *http.ServeMux
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := obs.New()
	s := &Server{
		cfg:     cfg,
		met:     met,
		cache:   newBuildCache("cache", cacheConfig{maxBytes: cfg.CacheBytes, compress: cfg.CompressCache, watermark: cfg.DemoteWatermark}, met),
		results: newLRU(int64(cfg.ResultEntries)),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		started: time.Now(),
		scratch: sync.Pool{New: func() any { return core.NewCountScratch() }},
		streams: newStreamRegistry(cfg, met),
		mux:     http.NewServeMux(),
		dur: &durability{
			dir:           cfg.DataDir,
			syncAlways:    cfg.WALSync != "none",
			snapshotBytes: cfg.SnapshotBytes,
		},
	}
	// With a data dir the server boots not-ready until Recover runs;
	// without one there is nothing to replay.
	s.recovering.Store(s.dur.enabled())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleHealthz)
	if cfg.DebugFaults {
		s.mux.HandleFunc("GET /debug/faults", s.handleFaultsGet)
		s.mux.HandleFunc("POST /debug/faults", s.handleFaultsPost)
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/count", s.handleCount)
	s.mux.HandleFunc("POST /v1/topk", s.handleTopK)
	s.mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /v1/stream", s.handleStreamCreate)
	s.mux.HandleFunc("GET /v1/stream/{id}", s.handleStreamGet)
	s.mux.HandleFunc("DELETE /v1/stream/{id}", s.handleStreamDelete)
	s.mux.HandleFunc("POST /v1/stream/{id}/edges", s.handleStreamIngest)
	// Pre-register the tuner, cover-edge and graph-build counters plus
	// one decision counter per registered algorithm, so /metrics shows
	// the full schema at zero before the first auto-routed count
	// arrives.
	for _, name := range engine.Algorithms() {
		met.Add(obs.TuneDecisionPrefix+name, 0)
	}
	for _, name := range []string{
		obs.TuneProbes, obs.TuneProbeNS, obs.TuneOverridden, obs.TuneCacheHits,
		obs.TuneStatGiniPermille, obs.TuneStatHubCoveragePermille,
		obs.TuneStatH2HDensityPermille,
		obs.CoverBFSNS, obs.CoverLevels, obs.CoverEdges, obs.CoverCountNS,
		obs.ServeGraphBuildNS, obs.ServeGraphBuilds,
	} {
		met.Add(name, 0)
	}
	obs.Publish("lotus-serve", met)
	return s
}

// Handler returns the service's HTTP handler, wrapped in last-resort
// panic recovery: a handler bug answers one request with a JSON 500
// instead of killing the process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.Add("serve.panics", 1)
				writeErr(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal error: %v", rec))
			}
		}()
		s.met.Add("serve.requests", 1)
		s.mux.ServeHTTP(w, r)
	})
}

// Metrics exposes the server's counter registry (tests, embedding).
func (s *Server) Metrics() *obs.Metrics { return s.met }

// BeginDrain flips the server into draining mode: /healthz answers
// 503 (so load balancers stop routing here) and new API requests are
// refused, while requests already admitted run to completion under
// http.Server.Shutdown.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.met.Add("serve.drains", 1)
	}
}

// ---------------------------------------------------------------
// Request plumbing: JSON decoding, error mapping, admission.

// apiErr is the uniform JSON error envelope.
type apiErr struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Status int    `json:"status"`
}

// jsonContentType is assigned into the header map directly — one
// shared immutable slice instead of a per-request Set allocation.
var jsonContentType = []string{"application/json"}

// jsonBufPool recycles response-encoding buffers; oversized ones
// (huge topk listings) are dropped rather than pinned in the pool.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBufBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Unreachable for the API response types; guard so a future
		// unencodable field fails loudly instead of answering garbage.
		buf.Reset()
		status = http.StatusInternalServerError
		_ = enc.Encode(apiErr{Error: err.Error(), Code: "encode_error", Status: status})
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledBufBytes {
		jsonBufPool.Put(buf)
	}
}

// renderJSON pre-renders a response exactly as writeJSON would emit
// it, for memoized results that are served as raw bytes on warm hits.
func renderJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiErr{Error: msg, Code: code, Status: status})
}

// decodeJSON parses a bounded request body strictly: unknown fields
// are rejected so a typo'd tuning knob fails loudly instead of
// silently running with defaults.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 128<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second document in the body is a malformed request too.
	if dec.More() {
		return errors.New("request body holds more than one JSON document")
	}
	return nil
}

// errStatus classifies an error from the counting stack into an HTTP
// status: caller mistakes are 4xx, deadline expiry is 504, anything
// else is the server's fault.
func errStatus(err error) (int, string) {
	var inj *faults.InjectedError
	if errors.As(err, &inj) {
		// Injected faults surface with their own codes so chaos runs can
		// tell exercised failure paths from genuine breakage; the status
		// split mirrors the taxonomy (transient: retry elsewhere/later).
		if inj.Permanent {
			return http.StatusInternalServerError, "injected_fault"
		}
		return http.StatusServiceUnavailable, "transient_fault"
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "canceled"
	case errors.Is(err, core.ErrOriented), errors.Is(err, engine.ErrNeedsSymmetric):
		return http.StatusBadRequest, "oriented_graph"
	case errors.Is(err, core.ErrNilGraph), errors.Is(err, engine.ErrNilGraph):
		return http.StatusBadRequest, "nil_graph"
	case errors.Is(err, engine.ErrPreparedMismatch):
		// Only reachable when the mismatch survives the evict-and-retry
		// pass; the cache is in a state the server cannot repair.
		return http.StatusInternalServerError, "prepared_mismatch"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// timeout resolves a request's wall-clock budget.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// admit passes the request through the admission gate: draining
// refuses outright, a full wait queue answers 429, and a request
// whose deadline expires while queued answers 504 without ever
// starting work. On success the returned release must be called.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (release func(), ok bool) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return nil, false
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.met.Add("serve.rejected", 1)
		writeErr(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("admission queue is full (%d waiting)", s.cfg.MaxQueue))
		return nil, false
	}
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		// The semaphore send and ctx expiry can race: a queued request
		// whose client disconnected (or deadline passed) may still win
		// the slot. Re-check and hand the slot straight back instead of
		// spending admitted capacity on a caller that is gone.
		if ctx.Err() != nil {
			<-s.sem
			s.met.Add("serve.queue_timeouts", 1)
			writeErr(w, http.StatusGatewayTimeout, "queue_timeout",
				"request deadline expired while waiting for admission")
			return nil, false
		}
		s.active.Add(1)
		return func() { s.active.Add(-1); <-s.sem }, true
	case <-ctx.Done():
		s.queued.Add(-1)
		s.met.Add("serve.queue_timeouts", 1)
		writeErr(w, http.StatusGatewayTimeout, "queue_timeout",
			"request deadline expired while waiting for admission")
		return nil, false
	}
}

// ---------------------------------------------------------------
// Cached builds.

// getGraph returns the built graph for spec through the cache. The
// returned release pins the graph's backing storage for the caller:
// a graph rehydrated from the compressed tier lives in a pooled
// arena, and release is what lets that arena recycle once no request
// uses it. Callers must invoke release exactly once, after their last
// access to the graph.
// copySpec returns a spec a detached build closure may hold: the
// handler's pooled *CountRequest — this spec included — is reset and
// repooled the moment the handler returns, while the closure can
// outlive it. The inline edge list is cloned for the same reason: its
// backing array would be appended into by the next request.
func copySpec(spec *GraphSpec) GraphSpec {
	c := *spec
	if len(c.Edges) > 0 {
		c.Edges = append([][2]uint32(nil), c.Edges...)
	}
	return c
}

func (s *Server) getGraph(ctx context.Context, spec *GraphSpec) (*graph.Graph, bool, func(), error) {
	bspec := copySpec(spec)
	v, hit, rel, err := s.cache.getOrBuild(ctx, "graph:"+spec.Key(), func(bctx context.Context) (any, int64, error) {
		t0 := time.Now()
		g, err := bspec.Build()
		if err != nil {
			return nil, 0, err
		}
		s.met.Add(obs.ServeGraphBuildNS, time.Since(t0).Nanoseconds())
		s.met.Add(obs.ServeGraphBuilds, 1)
		// Generation is not cancellable mid-build, but a build that
		// outlived shutdown must not land in the cache.
		if err := bctx.Err(); err != nil {
			return nil, 0, err
		}
		return g, graphBytes(g), nil
	})
	if err != nil {
		return nil, false, nil, err
	}
	switch g := v.(type) {
	case *graph.Graph:
		return g, hit, rel, nil
	case *residentGraph:
		return g.g, hit, rel, nil
	}
	return nil, false, nil, fmt.Errorf("serve: unexpected cache value %T for %q", v, spec.Key())
}

// tuneKey is the memoized routing-decision cache key: graph spec
// plus the hub count — the only count option that changes the probe.
func tuneKey(spec *GraphSpec, hubCount int) string {
	return fmt.Sprintf("tune:%s|hubs=%d", spec.Key(), hubCount)
}

// tuneDecisionBytes is the flat LRU charge for one memoized decision:
// the struct plus its 10-entry stats map, far below any structure.
const tuneDecisionBytes = 512

// getTuneDecision resolves the auto route for (spec, hubs) through
// the cache: the structural probe runs once per resident graph spec,
// and every later auto request on it reads the memoized decision.
// Request-level kernel overrides do not exist on the serve API, so
// the decision depends on nothing else.
func (s *Server) getTuneDecision(ctx context.Context, spec *GraphSpec, hubCount int) (*tune.Decision, bool, error) {
	bspec := copySpec(spec)
	v, hit, rel, err := s.cache.getOrBuild(ctx, tuneKey(spec, hubCount), func(bctx context.Context) (any, int64, error) {
		// Own graph pin for the detached build; see tryShardGrid.
		g, _, relG, err := s.getGraph(bctx, &bspec)
		if err != nil {
			return nil, 0, err
		}
		defer relG()
		pool := sched.NewPool(s.cfg.Workers).Bind(bctx)
		dec := tune.Analyze(g, hubCount, pool, tune.Overrides{})
		pool.Release()
		// A cancelled probe carries unspecified stats; keep it out.
		if err := bctx.Err(); err != nil {
			return nil, 0, err
		}
		return &dec, tuneDecisionBytes, nil
	})
	if err != nil {
		return nil, false, err
	}
	rel()
	return v.(*tune.Decision), hit, nil
}

// estimateLotusBytes upper-bounds what the p = 1 grid's plan and
// shard entries (tryShardGrid) together charge the decoded tier for
// the flat LOTUS structure, without building it. It must stay an
// upper bound — sharded routing compares it to MaxStructureBytes (the
// decoded tier's budget once the compressed tier exists), and an
// under-estimate would admit a structure that can never be resident,
// so it would under-shard. Accounting, matched against the actual
// charge in TestEstimateLotusBytesUpperBound: H2H holds at most
// h(h-1)/2 bits plus one 8-byte word of rounding; HE (2 B) and NHE
// (4 B) entries total at most 4 bytes per oriented edge; the two
// offset arrays and the relabeling ride at 20 bytes per vertex, plus
// fixed slack for the array headers and the plan's one range.
func estimateLotusBytes(g *graph.Graph, hubCount int) int64 {
	n := g.NumVertices()
	h := int64(core.Options{HubCount: hubCount}.EffectiveHubCount(n))
	return h*(h-1)/16 + 4*g.NumEdges() + 20*int64(n) + 96
}

// autoGrid picks the smallest grid dimension whose per-shard
// structures fit the single-structure budget, clamped to [2, 16].
// clamped reports that the upper clamp fired: even 16 shards are not
// estimated to fit the budget, so residency is no longer guaranteed.
func autoGrid(estBytes, maxBytes int64) (p int, clamped bool) {
	p = int((estBytes + maxBytes - 1) / maxBytes)
	if p < 2 {
		p = 2
	}
	if p > 16 {
		return 16, true
	}
	return p, false
}

// shardPlanKey / shardKey are the LOTUS structure cache keys: the plan
// (relabeling + ranges) and each block's structure are separate LRU
// entries. The flat structure is the p = 1 grid, one plan and one
// shard entry; a graph whose flat structure cannot be cached still
// gets fully warm serving from the p smaller entries of a wider grid.
func shardPlanKey(spec *GraphSpec, hubCount int, frontFraction float64, p int) string {
	return fmt.Sprintf("shardplan:%s|hubs=%d|ff=%g|p=%d", spec.Key(), hubCount, frontFraction, p)
}

func shardKey(spec *GraphSpec, hubCount int, frontFraction float64, p, b int) string {
	return fmt.Sprintf("shard:%s|hubs=%d|ff=%g|p=%d|b=%d", spec.Key(), hubCount, frontFraction, p, b)
}

// getShardGrid assembles the p-way shard grid for (spec, hubs, front
// fraction) through the cache, one entry per block plus one for the
// plan; /v1/topk uses p = 1, "lotus" counts their request's grid
// dimension. hit reports that every piece was already resident.
// Assembly cross-checks each shard against the plan; a mismatch (a
// corrupt or stale entry) purges the keys and rebuilds once before
// giving up.
func (s *Server) getShardGrid(ctx context.Context, spec *GraphSpec, hubCount int, frontFraction float64, p int) (*core.LotusGraph, bool, error) {
	for attempt := 0; ; attempt++ {
		gr, hit, err := s.tryShardGrid(ctx, spec, hubCount, frontFraction, p)
		if err == nil || attempt > 0 || ctx.Err() != nil {
			return gr, hit, err
		}
		// Purge and rebuild once: a half-evicted plan/shard mix can
		// only come from corrupt residency, never from a clean miss.
		s.evictShardGrid(spec, hubCount, frontFraction, p)
	}
}

func (s *Server) tryShardGrid(ctx context.Context, spec *GraphSpec, hubCount int, frontFraction float64, p int) (*core.LotusGraph, bool, error) {
	bspec := copySpec(spec)
	v, hit, rel, err := s.cache.getOrBuild(ctx, shardPlanKey(spec, hubCount, frontFraction, p), func(bctx context.Context) (any, int64, error) {
		if err := faults.Inject(FaultPreprocess); err != nil {
			return nil, 0, err
		}
		// Re-acquire the graph under the build's own pin: the caller's
		// pin dies with its request, and an arena-backed graph whose
		// last pin drops mid-build would have its slabs recycled under
		// the preprocessor. Resident graphs make this a plain LRU hit.
		g, _, relG, err := s.getGraph(bctx, &bspec)
		if err != nil {
			return nil, 0, err
		}
		defer relG()
		pool := sched.NewPool(s.cfg.Workers).Bind(bctx)
		pl, err := core.NewPlan(g, core.Options{HubCount: hubCount, FrontFraction: frontFraction, Pool: pool, Grid: p})
		pool.Release()
		if err != nil {
			return nil, 0, err
		}
		// A cancelled pool yields a partial plan with a nil error; the
		// context check keeps it out of the cache.
		if err := bctx.Err(); err != nil {
			return nil, 0, err
		}
		return pl, pl.SizeBytes(), nil
	})
	if err != nil {
		return nil, false, err
	}
	// LOTUS structures are not arena-backed; the pins are no-ops.
	rel()
	pl := v.(*core.Plan)
	shards := make([]*core.LotusShard, p)
	allHit := hit
	for b := 0; b < p; b++ {
		v, hitB, relB, err := s.cache.getOrBuild(ctx, shardKey(spec, hubCount, frontFraction, p, b), func(bctx context.Context) (any, int64, error) {
			if err := faults.Inject(FaultPreprocess); err != nil {
				return nil, 0, err
			}
			g, _, relG, err := s.getGraph(bctx, &bspec)
			if err != nil {
				return nil, 0, err
			}
			defer relG()
			pool := sched.NewPool(s.cfg.Workers).Bind(bctx)
			sh, err := pl.BuildShard(g, b, pool, nil)
			pool.Release()
			if err != nil {
				return nil, 0, err
			}
			if err := bctx.Err(); err != nil {
				return nil, 0, err
			}
			return sh, sh.TopologyBytes(), nil
		})
		if err != nil {
			return nil, false, err
		}
		relB()
		shards[b] = v.(*core.LotusShard)
		allHit = allHit && hitB
	}
	gr, err := core.Assemble(pl, shards)
	if err != nil {
		return nil, false, err
	}
	return gr, allHit, nil
}

// evictShardGrid purges every cache entry of one shard grid.
func (s *Server) evictShardGrid(spec *GraphSpec, hubCount int, frontFraction float64, p int) {
	if s.cache.remove(shardPlanKey(spec, hubCount, frontFraction, p)) {
		s.met.Add("cache.corrupt_evictions", 1)
	}
	for b := 0; b < p; b++ {
		if s.cache.remove(shardKey(spec, hubCount, frontFraction, p, b)) {
			s.met.Add("cache.corrupt_evictions", 1)
		}
	}
}

// ---------------------------------------------------------------
// /v1/count

// CountRequest asks for an exact triangle count.
type CountRequest struct {
	Graph     GraphSpec `json:"graph"`
	Algorithm string    `json:"algorithm,omitempty"`
	Workers   int       `json:"workers,omitempty"`
	// LOTUS tuning; both are part of the structure cache key.
	HubCount      int     `json:"hub_count,omitempty"`
	FrontFraction float64 `json:"front_fraction,omitempty"`
	// Shards is the grid dimension of a "lotus" count, also when
	// "auto" routes to it: 0 = the server's choice (1, or the size
	// routing's grid when the flat structure would exceed the
	// single-structure budget), otherwise 1..core.MaxGrid. Other
	// algorithms ignore it.
	Shards int `json:"shards,omitempty"`
	// TimeoutMS bounds the request (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Metrics asks for the per-phase counter snapshot; such runs
	// bypass the result cache (their metrics are the point).
	Metrics bool `json:"metrics,omitempty"`
	// NoCache bypasses the result cache (structure caches still
	// apply) — for measuring, not serving.
	NoCache bool `json:"no_cache,omitempty"`
}

// CacheInfo reports which cache layers served a request, plus any
// serving-quality warning (e.g. the auto shard grid was clamped, so
// per-shard structures may overrun the single-structure budget).
type CacheInfo struct {
	Graph  bool `json:"graph_hit"`
	Lotus  bool `json:"lotus_hit"`
	Result bool `json:"result_hit"`
	// Algorithm is the algorithm the request actually ran — it
	// differs from the requested one when the auto tuner routed the
	// count.
	Algorithm string `json:"algorithm,omitempty"`
	Warning   string `json:"warning,omitempty"`
}

// CountResponse is the run report plus cache provenance.
type CountResponse struct {
	obs.RunReport
	Cache CacheInfo `json:"cache"`
}

// cachedResult memoizes one exact count: the structured response,
// plus the response bytes pre-rendered with the all-hit cache stamp
// so a warm hit writes without re-encoding anything.
type cachedResult struct {
	resp     *CountResponse
	warmJSON []byte
}

// countReqPool / keyBufPool recycle the per-request decode target and
// result-key buffer; both are returned clean, so a pooled request
// never leaks one caller's fields into the next decode.
var countReqPool = sync.Pool{New: func() any { return new(CountRequest) }}

var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 192); return &b }}

// putCountReq resets and repools a request. The inline edge slice is
// kept for reuse only while small: a 4-million-edge body must not
// stay pinned in the pool.
func putCountReq(req *CountRequest) {
	edges := req.Graph.Edges
	if cap(edges) > 4096 {
		edges = nil
	}
	*req = CountRequest{}
	req.Graph.Edges = edges[:0]
	countReqPool.Put(req)
}

// appendCountKey builds the memoized-count key into dst without
// allocating; the format is byte-identical to the fmt.Sprintf it
// replaced so key semantics survive the refactor.
func appendCountKey(dst []byte, spec *GraphSpec, algo string, hubCount int, frontFraction float64, shards int) []byte {
	dst = append(dst, "count:"...)
	dst = spec.appendKey(dst)
	dst = append(dst, "|algo="...)
	dst = append(dst, algo...)
	dst = append(dst, "|hubs="...)
	dst = strconv.AppendInt(dst, int64(hubCount), 10)
	dst = append(dst, "|ff="...)
	dst = strconv.AppendFloat(dst, frontFraction, 'g', -1, 64)
	dst = append(dst, "|shards="...)
	dst = strconv.AppendInt(dst, int64(shards), 10)
	return dst
}

// checkLotusOptions rejects LOTUS options the relabeling would
// silently reinterpret: a negative hub_count (EffectiveHubCount turns
// it into one hub) and a front_fraction outside [0, 1] (a negative one
// means the default under a separate cache key; above 1 the whole
// graph becomes the front block). Valid options allocate nothing, so
// the warm /v1/count hit stays at zero allocs.
func checkLotusOptions(hubCount int, frontFraction float64) error {
	if hubCount < 0 {
		return fmt.Errorf("hub_count %d must be >= 0", hubCount)
	}
	if !(frontFraction >= 0 && frontFraction <= 1) {
		return fmt.Errorf("front_fraction %g must be in [0, 1]", frontFraction)
	}
	return nil
}

// warmCountHit serves a memoized count straight from its pre-rendered
// bytes: a no-alloc map lookup under the result lock, one header
// assignment, one Write. This is the steady-state path a resident
// service spends its life on; TestWarmCountHitZeroAlloc gates it at
// zero allocations per request.
func (s *Server) warmCountHit(w http.ResponseWriter, key []byte) bool {
	s.resMu.Lock()
	v, ok := s.results.getBytes(key)
	s.resMu.Unlock()
	if !ok {
		return false
	}
	s.met.Add("result.hits", 1)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(v.(*cachedResult).warmJSON)
	return true
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	req := countReqPool.Get().(*CountRequest)
	defer putCountReq(req)
	if err := decodeJSON(r, req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := req.Graph.Validate(s.cfg.AllowFiles); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_graph_spec", err.Error())
		return
	}
	if err := checkLotusOptions(req.HubCount, req.FrontFraction); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.Shards < 0 || req.Shards > core.MaxGrid {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("shards %d must be in [0, %d]", req.Shards, core.MaxGrid))
		return
	}
	algo := req.Algorithm
	if algo == "" {
		algo = s.cfg.DefaultAlgorithm
	}
	if _, err := engine.Lookup(algo); err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_algorithm", err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	release, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()

	kb := keyBufPool.Get().(*[]byte)
	resultKey := appendCountKey((*kb)[:0], &req.Graph, algo, req.HubCount, req.FrontFraction, req.Shards)
	defer func() { *kb = resultKey[:0]; keyBufPool.Put(kb) }()
	useResultCache := !req.NoCache && !req.Metrics
	if useResultCache {
		if s.warmCountHit(w, resultKey) {
			return
		}
		s.met.Add("result.misses", 1)
	}

	start := time.Now()
	g, graphHit, relG, err := s.getGraph(ctx, &req.Graph)
	if err != nil {
		s.countError(w, req, algo, start, err)
		return
	}
	defer relG()
	// Resolve the auto route before anything keys off the algorithm:
	// the tuner picks the real one, and the oversized routing,
	// prepared-structure attachment, scratch reuse and class reporting
	// below all see the resolved name, so an auto request amortizes
	// structures exactly like an explicit one.
	var decision *obs.TuneDecision
	var tunePhase1, tuneIntersect string
	if algo == "auto" {
		dec, tuneHit, derr := s.getTuneDecision(ctx, &req.Graph, req.HubCount)
		if derr != nil {
			s.countError(w, req, algo, start, derr)
			return
		}
		algo = dec.Algorithm
		tunePhase1, tuneIntersect = dec.Phase1Kernel, dec.IntersectKernel
		decision = dec.Report()
		dec.Publish(s.met)
		if tuneHit {
			s.met.Add(obs.TuneCacheHits, 1)
		}
	}
	// A "lotus" count runs over a gridP-way grid: the request's
	// shards, or 1 (the flat structure) unless that structure would
	// exceed the single-structure budget. An oversized one can never
	// be cached, but p per-shard structures each 1/p the size can.
	gridP := 0
	var cacheWarning string
	if algo == "lotus" && !g.Oriented {
		gridP = max(req.Shards, 1)
		if est := estimateLotusBytes(g, req.HubCount); est > s.cfg.MaxStructureBytes {
			if req.Shards == 0 {
				var clamped bool
				gridP, clamped = autoGrid(est, s.cfg.MaxStructureBytes)
				if clamped {
					// Even the largest grid can't honor the budget. The
					// estimate is an upper bound and per-shard H2H shrinks
					// quadratically with p, so allow 2x slack per shard
					// before refusing outright; inside the slack, serve
					// but say so instead of silently overrunning.
					if est/16 > 2*s.cfg.MaxStructureBytes {
						s.met.Add("serve.shard_clamp", 1)
						writeErr(w, http.StatusRequestEntityTooLarge, "structure_too_large",
							fmt.Sprintf("estimated structure size %d exceeds -max-structure-bytes %d even at 16 shards; raise the budget or pass an explicit shards count",
								est, s.cfg.MaxStructureBytes))
						return
					}
					s.met.Add("serve.shard_clamp", 1)
					cacheWarning = fmt.Sprintf("auto shard grid clamped to 16: estimated per-shard size %d exceeds max_structure_bytes %d; shards may not stay cache-resident",
						(est+15)/16, s.cfg.MaxStructureBytes)
				}
			}
			s.met.Add("serve.sharded_routed", 1)
		}
		if gridP > 1 {
			s.met.Add("serve.sharded_counts", 1)
		}
	}
	var prepared *core.LotusGraph
	var lotusHit bool
	// Reusable per-worker kernel scratch: LOTUS counts run with
	// bitmaps from a previous count instead of allocating fresh ones
	// per request.
	var scratch *core.CountScratch
	if gridP > 0 {
		if prepared, lotusHit, err = s.getShardGrid(ctx, &req.Graph, req.HubCount, req.FrontFraction, gridP); err != nil {
			s.countError(w, req, algo, start, err)
			return
		}
		scratch = s.scratch.Get().(*core.CountScratch)
		defer s.scratch.Put(scratch)
	}
	runOnce := func() (*engine.Report, error) {
		return engine.Run(ctx, g, engine.Spec{
			Algorithm:      algo,
			Workers:        firstPositive(req.Workers, s.cfg.Workers),
			CollectMetrics: req.Metrics,
			Params: engine.Params{
				HubCount:        req.HubCount,
				FrontFraction:   req.FrontFraction,
				Shards:          gridP,
				Phase1Kernel:    tunePhase1,
				IntersectKernel: tuneIntersect,
				Prepared:        prepared,
				Scratch:         scratch,
			},
		})
	}
	rep, err := runOnce()
	if err != nil && errors.Is(err, engine.ErrPreparedMismatch) {
		// The injected structure contradicts the graph: purge the
		// corrupt entries and count again from scratch.
		s.evictShardGrid(&req.Graph, req.HubCount, req.FrontFraction, gridP)
		prepared = nil
		rep, err = runOnce()
	}
	if err != nil {
		s.countError(w, req, algo, start, err)
		return
	}

	rr := obs.NewRunReport("lotus-serve")
	rr.Graph = obs.GraphInfo{Source: req.Graph.Key(), Vertices: int64(g.NumVertices()), Edges: g.NumEdges()}
	rr.Algorithm = algo
	rr.Workers = firstPositive(req.Workers, s.cfg.Workers)
	rr.Triangles = rep.Triangles
	rr.ElapsedNS = rep.Elapsed.Nanoseconds()
	rr.Metrics = rep.Metrics
	for _, p := range rep.Phases {
		rr.Phases = append(rr.Phases, obs.PhaseNS{Name: p.Name, NS: p.Duration.Nanoseconds()})
	}
	if reg, err := engine.Lookup(algo); err == nil && reg.Caps.ReportsClasses {
		rr.Classes = &obs.Classes{HHH: rep.HHH, HHN: rep.HHN, HNN: rep.HNN, NNN: rep.NNN}
	}
	rr.Decision = decision
	resp := &CountResponse{RunReport: *rr, Cache: CacheInfo{Graph: graphHit, Lotus: lotusHit, Algorithm: algo, Warning: cacheWarning}}
	if useResultCache {
		// Pre-render the warm variant once, at insert time, so every
		// later hit is a raw byte write.
		warm := *resp
		warm.Cache = CacheInfo{Graph: true, Lotus: true, Result: true, Algorithm: algo, Warning: cacheWarning}
		cr := &cachedResult{resp: resp, warmJSON: renderJSON(&warm)}
		s.resMu.Lock()
		s.results.add(string(resultKey), cr, 1)
		s.met.Set("result.entries", int64(s.results.len()))
		s.resMu.Unlock()
	}
	s.met.AddDuration("serve.count_ns", time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// countError answers a failed count with the classified status and a
// partial run report: the graph spec, algorithm and elapsed time are
// real; everything else is absent.
func (s *Server) countError(w http.ResponseWriter, req *CountRequest, algo string, start time.Time, err error) {
	status, code := errStatus(err)
	if status == http.StatusGatewayTimeout {
		s.met.Add("serve.timeouts", 1)
	} else if status >= http.StatusInternalServerError {
		s.met.Add("serve.errors", 1)
	}
	rr := obs.NewRunReport("lotus-serve")
	rr.Graph = obs.GraphInfo{Source: req.Graph.Key()}
	rr.Algorithm = algo
	rr.ElapsedNS = time.Since(start).Nanoseconds()
	rr.Error = err.Error()
	writeJSON(w, status, struct {
		obs.RunReport
		Code string `json:"code"`
	}{RunReport: *rr, Code: code})
}

func firstPositive(vals ...int) int {
	for _, v := range vals {
		if v > 0 {
			return v
		}
	}
	return 0
}

// ---------------------------------------------------------------
// /v1/topk — per-vertex top-k triangle participation.

// TopKRequest asks for the k vertices in the most triangles.
type TopKRequest struct {
	Graph         GraphSpec `json:"graph"`
	K             int       `json:"k,omitempty"`
	HubCount      int       `json:"hub_count,omitempty"`
	FrontFraction float64   `json:"front_fraction,omitempty"`
	Workers       int       `json:"workers,omitempty"`
	TimeoutMS     int64     `json:"timeout_ms,omitempty"`
}

// VertexCount is one top-k row, in original vertex IDs.
type VertexCount struct {
	Vertex    uint32 `json:"vertex"`
	Triangles uint64 `json:"triangles"`
}

// TopKResponse lists the top-k vertices by triangle participation.
type TopKResponse struct {
	K        int           `json:"k"`
	Vertices []VertexCount `json:"vertices"`
	Cache    CacheInfo     `json:"cache"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := req.Graph.Validate(s.cfg.AllowFiles); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_graph_spec", err.Error())
		return
	}
	if err := checkLotusOptions(req.HubCount, req.FrontFraction); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	if req.K > 10000 {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("k %d exceeds the limit of 10000", req.K))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	release, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()

	_, graphHit, relG, err := s.getGraph(ctx, &req.Graph)
	if err != nil {
		status, code := errStatus(err)
		writeErr(w, status, code, err.Error())
		return
	}
	defer relG()
	// The p = 1 grid's one shard holds every vertex's rows: the same
	// cache entries a "lotus" count of this spec uses.
	gr, lotusHit, err := s.getShardGrid(ctx, &req.Graph, req.HubCount, req.FrontFraction, 1)
	if err != nil {
		status, code := errStatus(err)
		writeErr(w, status, code, err.Error())
		return
	}
	pool := sched.NewPool(firstPositive(req.Workers, s.cfg.Workers)).Bind(ctx)
	per := gr.Flat().CountPerVertex(pool)
	pool.Release()
	if err := ctx.Err(); err != nil {
		status, code := errStatus(err)
		s.met.Add("serve.timeouts", 1)
		writeErr(w, status, code, "deadline expired during per-vertex counting")
		return
	}
	// per is indexed by relabeled IDs; report original ones.
	top := topKVertices(per, gr.Relabeling, req.K)
	writeJSON(w, http.StatusOK, &TopKResponse{K: len(top), Vertices: top,
		Cache: CacheInfo{Graph: graphHit, Lotus: lotusHit}})
}

// topKVertices selects the k highest counts (ties broken by original
// vertex ID) and maps them back through the relabeling array.
func topKVertices(perNew []uint64, relabel []uint32, k int) []VertexCount {
	out := make([]VertexCount, 0, len(perNew))
	for old, nw := range relabel {
		if c := perNew[nw]; c > 0 {
			out = append(out, VertexCount{Vertex: uint32(old), Triangles: c})
		}
	}
	// Full sort is fine at the vertex counts this server admits; the
	// k cap keeps the response small, not the sort cheap.
	sortVertexCounts(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sortVertexCounts(vc []VertexCount) {
	// Stable ordering: triangles desc, then vertex ID asc.
	sort.Slice(vc, func(i, j int) bool {
		if vc[i].Triangles != vc[j].Triangles {
			return vc[i].Triangles > vc[j].Triangles
		}
		return vc[i].Vertex < vc[j].Vertex
	})
}

// ---------------------------------------------------------------
// /v1/estimate — approximate counting.

// EstimateRequest asks for an approximate triangle count.
type EstimateRequest struct {
	Graph GraphSpec `json:"graph"`
	// Method: "doulion" (edge sparsification), "wedge" (wedge
	// sampling) or "hybrid" (LOTUS-exact hub triangles + sampled NNN).
	Method    string  `json:"method"`
	P         float64 `json:"p,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// EstimateResponse carries the estimate.
type EstimateResponse struct {
	Method   string    `json:"method"`
	Estimate float64   `json:"estimate"`
	Cache    CacheInfo `json:"cache"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err := req.Graph.Validate(s.cfg.AllowFiles); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_graph_spec", err.Error())
		return
	}
	switch req.Method {
	case "doulion", "hybrid":
		if req.P <= 0 || req.P > 1 {
			writeErr(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("%s needs p in (0, 1], got %g", req.Method, req.P))
			return
		}
	case "wedge":
		if req.Samples < 1 || req.Samples > 1<<26 {
			writeErr(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("wedge needs samples in [1, %d], got %d", 1<<26, req.Samples))
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown estimator %q (want doulion, wedge or hybrid)", req.Method))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	release, ok := s.admit(ctx, w)
	if !ok {
		return
	}
	defer release()

	g, graphHit, relG, err := s.getGraph(ctx, &req.Graph)
	if err != nil {
		status, code := errStatus(err)
		writeErr(w, status, code, err.Error())
		return
	}
	defer relG()
	est, err := s.estimate(ctx, g, &req)
	if err != nil {
		status, code := errStatus(err)
		if status == http.StatusGatewayTimeout {
			s.met.Add("serve.timeouts", 1)
		}
		writeErr(w, status, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, &EstimateResponse{Method: req.Method, Estimate: est,
		Cache: CacheInfo{Graph: graphHit}})
}

// ---------------------------------------------------------------
// Health and metrics.

// handleHealthz is the readiness probe, also mounted at /readyz: 503
// while draining (stop routing here, requests are finishing) or while
// startup recovery replays persisted sessions. /healthz keeps the
// readiness semantics it always had, so existing load-balancer checks
// behave identically.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.recovering.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

// handleLivez is the liveness probe: 200 whenever the process can
// answer HTTP at all — recovering and draining are healthy states, not
// reasons to be restarted (restarting a recovering server loops it).
func (s *Server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "alive",
		"uptime_ms": time.Since(s.started).Milliseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Gauges are sampled at snapshot time; the counters are live.
	s.met.Set("serve.queue_depth", s.queued.Load())
	s.met.Set("serve.active", s.active.Load())
	s.met.Set("serve.streams_active", int64(s.streams.len()))
	writeJSON(w, http.StatusOK, s.met.Snapshot())
}

// AlgorithmCaps is the wire form of an algorithm's capability tags.
type AlgorithmCaps struct {
	Parallel       bool `json:"parallel"`
	ReportsPhases  bool `json:"reports_phases"`
	ReportsClasses bool `json:"reports_classes"`
	NeedsSymmetric bool `json:"needs_symmetric"`
	Cancellable    bool `json:"cancellable"`
	Shardable      bool `json:"shardable"`
	Streaming      bool `json:"streaming"`
}

// AlgorithmInfo is one /v1/algorithms entry.
type AlgorithmInfo struct {
	Name         string        `json:"name"`
	Capabilities AlgorithmCaps `json:"capabilities"`
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	regs := engine.Registrations()
	out := make([]AlgorithmInfo, len(regs))
	for i, reg := range regs {
		out[i] = AlgorithmInfo{
			Name: reg.Name,
			Capabilities: AlgorithmCaps{
				Parallel:       reg.Caps.SupportsWorkers,
				ReportsPhases:  reg.Caps.ReportsPhases,
				ReportsClasses: reg.Caps.ReportsClasses,
				NeedsSymmetric: reg.Caps.NeedsSymmetric,
				Cancellable:    reg.Caps.Cancellable,
				Shardable:      reg.Caps.Shardable,
				Streaming:      reg.Caps.Streaming,
			},
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": out})
}
