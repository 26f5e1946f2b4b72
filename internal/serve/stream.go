package serve

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"lotustc/internal/approx"
	"lotustc/internal/core"
	"lotustc/internal/faults"
	"lotustc/internal/obs"
	"lotustc/internal/sched"
)

// streamConfidence is the confidence level of the error bounds
// reported by approximate sessions.
const streamConfidence = 0.95

// streamSession is one live streaming-ingest counter, in one of two
// runtime states:
//
//   - exact: `sc` holds the core.Streaming counter (full per-vertex
//     adjacency, exact per-class counts).
//   - approx: `tr` holds a fixed-memory Triest reservoir.
//
// Sessions created in "auto" mode start exact and degrade to approx
// when their resident bytes cross the session budget.
//
// Ingest mutates counter structures and is serialized under mu — the
// single-writer contract of both core.Streaming and approx.Triest.
// After every batch (and on create and recovery) the writer publishes
// an immutable snapshot of the counters into `snap`; GET reads that
// one pointer without the lock, so a read racing ingest sees the
// state of one whole batch boundary, one batch stale at worst.
type streamSession struct {
	id     string
	mode   string // configured: "exact" | "approx" | "auto"
	auto   bool
	budget int64 // resident-byte budget for this session

	mu       sync.Mutex      // serializes ingest and the exact->approx flip
	sc       *core.Streaming // guarded by mu; non-nil while exact
	tr       *approx.Triest  // guarded by mu; non-nil once approx
	degraded bool            // guarded by mu; an auto session that switched

	// degradeSeed/degradeWindow carry the estimator knobs an auto
	// session applies if it later degrades; they are kept for every
	// mode because snapshots persist them for deterministic recovery.
	degradeSeed   int64
	degradeWindow uint64

	// Creation parameters, retained verbatim for snapshots: recovery
	// rebuilds the exact counter's universe from them, and hub order
	// matters (core.Streaming assigns dense hub indices in input
	// order, and bit-identical recovery depends on the same mapping).
	vertices    int
	hubIDs      []uint32
	countNonHub bool

	// Durability plumbing (nil / zero when the server runs without a
	// data dir). wal and the scratch slices are guarded by mu;
	// walActive/durDegraded are atomics so streamState stays lock-free.
	walGen           uint64
	wal              *sessionWAL
	walAdds, walRems [][2]uint32
	walActive        atomic.Bool
	durDegraded      atomic.Bool

	// snap is the counters' state at the last batch boundary; only
	// the fields publishLocked fills are meaningful.
	snap atomic.Pointer[StreamState]
}

// publishLocked snapshots the counters for lock-free readers. Caller
// holds mu (or owns a session not yet registered).
func (ss *streamSession) publishLocked() {
	st := &StreamState{Degraded: ss.degraded}
	if sc := ss.sc; sc != nil {
		hhh, hhn, hnn, nnn := sc.Classes()
		st.Vertices = sc.NumVertices()
		st.Hubs = sc.NumHubs()
		st.Edges = sc.Edges()
		st.HubTriangles = hhh + hhn + hnn
		st.HHH, st.HHN, st.HNN, st.NNN = hhh, hhn, hnn, nnn
		st.Estimate = float64(st.HubTriangles + nnn)
		st.MemoryBytes = sc.MemoryBytes()
		st.OverBudget = !ss.auto && st.MemoryBytes > ss.budget
	} else {
		tr := ss.tr
		st.Approx = true
		st.Edges = tr.EdgesSeen()
		st.Estimate = tr.Estimate()
		st.ErrorBound = tr.ErrorBound(streamConfidence)
		st.ReservoirEdges = tr.ReservoirSize()
		st.ReservoirCap = tr.ReservoirCap()
		st.EdgesRemoved = tr.EdgesRemoved()
		st.MemoryBytes = tr.MemoryBytes()
	}
	ss.snap.Store(st)
}

// streamRegistry holds the live sessions, bounded by Config.MaxStreams
// so an abandoning client cannot grow the process without limit.
type streamRegistry struct {
	mu       sync.Mutex
	sessions map[string]*streamSession
	nextID   atomic.Uint64
	max      int
	met      *obs.Metrics
}

func newStreamRegistry(cfg Config, met *obs.Metrics) *streamRegistry {
	return &streamRegistry{sessions: map[string]*streamSession{}, max: cfg.MaxStreams, met: met}
}

func (r *streamRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// add registers a prepared session under a fresh ID.
func (r *streamRegistry) add(ss *streamSession) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.sessions) >= r.max {
		return fmt.Errorf("stream session limit reached (%d live)", r.max)
	}
	ss.id = fmt.Sprintf("s%d", r.nextID.Add(1))
	r.sessions[ss.id] = ss
	r.met.Add("stream.created", 1)
	return nil
}

func (r *streamRegistry) get(id string) (*streamSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss, ok := r.sessions[id]
	return ss, ok
}

// take removes and returns a session, so the caller can tear down its
// durability state (close the WAL, remove the directory) after it has
// left the registry.
func (r *streamRegistry) take(id string) (*streamSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss, ok := r.sessions[id]
	if !ok {
		return nil, false
	}
	delete(r.sessions, id)
	r.met.Add("stream.deleted", 1)
	return ss, true
}

// list snapshots the live sessions (shutdown flush iterates it).
func (r *streamRegistry) list() []*streamSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*streamSession, 0, len(r.sessions))
	for _, ss := range r.sessions {
		out = append(out, ss)
	}
	return out
}

// ---------------------------------------------------------------
// Handlers.

// StreamCreateRequest opens a streaming session.
//
// Modes: "exact" keeps full adjacency and exact per-class counts and
// refuses ingest once the session's resident bytes cross its budget;
// "approx" runs a fixed-memory Triest reservoir sized to the budget
// and reports estimates with error bounds; "auto" starts exact and
// degrades to the estimator when the budget is crossed instead of
// refusing. Empty mode takes the server default.
type StreamCreateRequest struct {
	// Vertices/Hubs define the exact counter's universe; required for
	// exact and auto modes, ignored by approx (a reservoir needs no
	// universe).
	Vertices int      `json:"vertices,omitempty"`
	Hubs     []uint32 `json:"hubs,omitempty"`
	// CountNonHub additionally maintains NNN triangles (adjacency
	// for every vertex, not just hubs).
	CountNonHub bool `json:"count_non_hub,omitempty"`
	// Mode: "exact" | "approx" | "auto" ("" = server default).
	Mode string `json:"mode,omitempty"`
	// BudgetBytes caps the session's resident memory (0 = the
	// server-wide -max-stream-bytes; larger requests are clamped to
	// it).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Window restricts approx estimates to the trailing `window`
	// stream edges (0 = whole stream). Approx/auto only.
	Window uint64 `json:"window,omitempty"`
	// Seed makes approx sampling reproducible (0 = derived from the
	// session ID).
	Seed int64 `json:"seed,omitempty"`
}

// StreamState is a snapshot of a session's counters at a batch
// boundary.
// Estimate/ErrorBound are always populated: an exact session reports
// its exact total with a zero bound, so auto-mode clients read
// `estimate ± error_bound` without caring whether degradation has
// happened (the `approx` and `degraded` flags say so explicitly).
type StreamState struct {
	ID   string `json:"id"`
	Mode string `json:"mode"`
	// Approx reports that counts are estimates; Degraded that an auto
	// session crossed its budget and switched. OverBudget flags an
	// exact session that outgrew its budget (its ingest now refused).
	Approx     bool `json:"approx"`
	Degraded   bool `json:"degraded,omitempty"`
	OverBudget bool `json:"over_budget,omitempty"`
	// Durability reports the session's persistence state: "wal" when
	// every batch is journaled, "degraded" when repeated WAL failures
	// flipped the session to memory-only (it keeps serving; its state
	// will not survive a crash), empty when the server runs without a
	// data dir.
	Durability string `json:"durability,omitempty"`

	Vertices     int    `json:"vertices,omitempty"`
	Hubs         int    `json:"hubs,omitempty"`
	Edges        uint64 `json:"edges"`
	HubTriangles uint64 `json:"hub_triangles"`
	HHH          uint64 `json:"hhh"`
	HHN          uint64 `json:"hhn"`
	HNN          uint64 `json:"hnn"`
	NNN          uint64 `json:"nnn"`

	Estimate   float64 `json:"estimate"`
	ErrorBound float64 `json:"error_bound"`
	Confidence float64 `json:"confidence"`

	ReservoirEdges int    `json:"reservoir_edges,omitempty"`
	ReservoirCap   int    `json:"reservoir_cap,omitempty"`
	EdgesRemoved   uint64 `json:"edges_removed,omitempty"`
	MemoryBytes    int64  `json:"memory_bytes"`
	BudgetBytes    int64  `json:"budget_bytes"`
}

func streamState(ss *streamSession) *StreamState {
	st := *ss.snap.Load()
	st.ID = ss.id
	st.Mode = ss.mode
	st.Confidence = streamConfidence
	st.BudgetBytes = ss.budget
	if ss.walActive.Load() {
		st.Durability = "wal"
	} else if ss.durDegraded.Load() {
		st.Durability = "degraded"
	}
	return &st
}

// sessionBudget resolves a session's byte budget: the request's, if
// set, clamped to the server-wide per-session cap.
func (s *Server) sessionBudget(req int64) int64 {
	if req <= 0 || req > s.cfg.MaxStreamBytes {
		return s.cfg.MaxStreamBytes
	}
	return req
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	if s.recovering.Load() {
		writeErr(w, http.StatusServiceUnavailable, "recovering", "server is replaying persisted sessions")
		return
	}
	var req StreamCreateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	mode := req.Mode
	if mode == "" {
		mode = s.cfg.DefaultStreamMode
	}
	switch mode {
	case "exact", "approx", "auto":
	default:
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown stream mode %q (want exact, approx or auto)", mode))
		return
	}
	ss := &streamSession{
		mode:   mode,
		auto:   mode == "auto",
		budget: s.sessionBudget(req.BudgetBytes),
	}
	seed := req.Seed
	if seed == 0 {
		seed = int64(s.streams.nextID.Load()) + 1
	}
	// Every mode records its estimator knobs and (for exact/auto) its
	// universe: snapshots persist them so recovery can rebuild the
	// session exactly as created.
	ss.degradeSeed, ss.degradeWindow = seed, req.Window
	if mode == "approx" {
		ss.tr = approx.NewTriestWindow(approx.ReservoirForBudget(ss.budget), req.Window, seed)
		s.met.Add("stream.approx_sessions", 1)
	} else {
		if req.Vertices < 1 || req.Vertices > s.cfg.MaxStreamVertices {
			writeErr(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("vertices %d out of range [1, %d]", req.Vertices, s.cfg.MaxStreamVertices))
			return
		}
		if len(req.Hubs) > s.cfg.MaxStreamHubs {
			writeErr(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("%d hubs exceeds the limit of %d", len(req.Hubs), s.cfg.MaxStreamHubs))
			return
		}
		// NewStreaming validates range and uniqueness of the hub set —
		// before it, a stray hub ID was a panic that took the whole
		// process down.
		sc, err := core.NewStreaming(req.Vertices, req.Hubs)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_hubs", err.Error())
			return
		}
		sc.CountNonHub = req.CountNonHub
		ss.vertices, ss.hubIDs, ss.countNonHub = req.Vertices, req.Hubs, req.CountNonHub
		if sc.MemoryBytes() > ss.budget {
			// The empty universe alone busts the budget: an auto session
			// starts out degraded; an exact one is refused outright.
			if !ss.auto {
				writeErr(w, http.StatusRequestEntityTooLarge, "stream_over_budget",
					fmt.Sprintf("exact universe of %d vertices needs %d bytes, budget is %d (use mode=approx or auto)",
						req.Vertices, sc.MemoryBytes(), ss.budget))
				return
			}
			ss.tr = approx.NewTriestWindow(approx.ReservoirForBudget(ss.budget), req.Window, seed)
			ss.degraded = true
			s.met.Add("stream.degraded", 1)
		} else {
			ss.sc = sc
		}
	}
	ss.publishLocked()
	if err := s.streams.add(ss); err != nil {
		writeErr(w, http.StatusTooManyRequests, "stream_limit", err.Error())
		return
	}
	if s.dur.enabled() {
		// Genesis snapshot + first WAL generation. Failure here never
		// fails the create: the session runs memory-only and says so.
		ss.mu.Lock()
		if err := s.snapshotLocked(ss); err != nil {
			s.degradeDurabilityLocked(ss)
		}
		ss.mu.Unlock()
	}
	writeJSON(w, http.StatusCreated, streamState(ss))
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_such_stream", "no such stream session")
		return
	}
	// Counter reads come from the published batch-boundary snapshot;
	// no session lock, so polling never stalls behind a large ingest
	// batch.
	writeJSON(w, http.StatusOK, streamState(ss))
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		writeErr(w, http.StatusServiceUnavailable, "recovering", "server is replaying persisted sessions")
		return
	}
	ss, ok := s.streams.take(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_such_stream", "no such stream session")
		return
	}
	// Deleting a session deletes its persisted state too: the registry
	// entry is already gone, so no new ingest can race the teardown.
	ss.mu.Lock()
	if ss.wal != nil {
		_ = ss.wal.close()
		ss.wal = nil
	}
	ss.walActive.Store(false)
	ss.mu.Unlock()
	if s.dur.enabled() {
		_ = os.RemoveAll(s.dur.sessionDir(ss.id))
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// StreamIngestRequest applies a batch of edge insertions then
// removals to a session.
type StreamIngestRequest struct {
	Add    [][2]uint32 `json:"add,omitempty"`
	Remove [][2]uint32 `json:"remove,omitempty"`
}

func (s *Server) handleStreamIngest(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		writeErr(w, http.StatusServiceUnavailable, "recovering", "server is replaying persisted sessions")
		return
	}
	if err := faults.Inject(FaultIngestApply); err != nil {
		status, code := errStatus(err)
		writeErr(w, status, code, err.Error())
		return
	}
	ss, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no_such_stream", "no such stream session")
		return
	}
	var req StreamIngestRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if n := len(req.Add) + len(req.Remove); n > s.cfg.MaxStreamBatch {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d edges exceeds the limit of %d", n, s.cfg.MaxStreamBatch))
		return
	}
	// Batch preparation (normalize, drop self loops, dedup) runs
	// outside the session lock and, for large batches, in parallel
	// across sched workers with pooled scratch — so a 64k-edge batch
	// no longer serializes its whole cost behind one goroutine.
	adds := s.prepareBatch(req.Add)
	rems := s.prepareBatch(req.Remove)
	defer adds.release()
	defer rems.release()

	// One writer at a time; out-of-range endpoints are ignored by
	// the exact counter rather than refused, matching the loose
	// semantics of an edge stream. The WAL append happens before the
	// apply (write-ahead): every acknowledged batch is on disk, and a
	// crash between append and ack merely replays a batch the client
	// never saw confirmed — at-least-once, never lost.
	ss.mu.Lock()
	s.walAppendLocked(ss, adds, rems)
	rejected := ss.applyLocked(s, adds, rems)
	if !rejected {
		s.maybeSnapshotLocked(ss)
	}
	state := streamState(ss)
	ss.mu.Unlock()
	if rejected {
		s.met.Add("stream.budget_rejections", 1)
		writeErr(w, http.StatusRequestEntityTooLarge, "stream_over_budget",
			fmt.Sprintf("session %s holds %d bytes, over its %d-byte budget; delete it or use mode=approx/auto",
				ss.id, state.MemoryBytes, ss.budget))
		return
	}
	s.met.Add("stream.edges_ingested", int64(adds.len()+rems.len()))
	writeJSON(w, http.StatusOK, state)
}

// budgetCheckEvery is how many applied edges pass between resident-
// byte rechecks during an exact ingest: frequent enough that an auto
// session overshoots its budget by at most a few KiB, cheap enough
// (one atomic load) to vanish in the ingest cost.
const budgetCheckEvery = 1024

// applyLocked applies a prepared batch under the session lock. It
// returns true when the session is an over-budget exact session and
// the batch was refused. Auto sessions degrade mid-batch instead:
// the remaining edges continue into the estimator.
func (ss *streamSession) applyLocked(srv *Server, adds, rems *preparedBatch) bool {
	if sc := ss.sc; sc != nil {
		if !ss.auto && sc.MemoryBytes() > ss.budget {
			return true
		}
		applied := 0
		adds.each(func(u, v uint32) {
			if ss.degraded {
				ss.tr.AddEdge(u, v)
				return
			}
			sc.AddEdge(u, v)
			if applied++; ss.auto && applied%budgetCheckEvery == 0 && sc.MemoryBytes() > ss.budget {
				ss.degradeLocked(srv, sc)
			}
		})
		if ss.auto && !ss.degraded && sc.MemoryBytes() > ss.budget {
			ss.degradeLocked(srv, sc)
		}
		if ss.degraded {
			rems.each(ss.tr.RemoveEdge)
		} else {
			rems.each(func(u, v uint32) { sc.RemoveEdge(u, v) })
		}
	} else {
		adds.each(ss.tr.AddEdge)
		rems.each(ss.tr.RemoveEdge)
	}
	ss.publishLocked()
	return false
}

// degradeLocked flips an auto session from exact to approx: a fresh
// reservoir sized to the budget is seeded with the counter's current
// edge set (a uniform reservoir sample of the resident graph), and the
// exact structures are released. The batch's snapshot is published
// when the batch completes. Caller holds mu.
func (ss *streamSession) degradeLocked(srv *Server, sc *core.Streaming) {
	tr := approx.NewTriestWindow(approx.ReservoirForBudget(ss.budget), ss.degradeWindow, ss.degradeSeed)
	sc.ForEachEdge(tr.AddEdge)
	ss.tr = tr
	ss.degraded = true
	ss.sc = nil // release the exact structures to the GC
	srv.met.Add("stream.degraded", 1)
}

// ---------------------------------------------------------------
// Batch preparation: normalization + dedup, parallel for large
// batches, with pooled per-worker scratch.

// prepScratch is one worker's batch-preparation scratch: a dedup set
// and an output buffer, reused across requests through prepPool.
type prepScratch struct {
	seen map[[2]uint32]struct{}
	out  [][2]uint32
}

var prepPool = sync.Pool{New: func() any {
	return &prepScratch{seen: make(map[[2]uint32]struct{}, 1024)}
}}

// maxPooledScratch caps what Put returns to the pool: scratch that
// ballooned on a giant batch is dropped for the GC instead of
// pinning its worst-case footprint forever (the capped Get/Put
// idiom).
const maxPooledScratch = 1 << 16

func getScratch() *prepScratch { return prepPool.Get().(*prepScratch) }

func putScratch(p *prepScratch) {
	if len(p.seen) > maxPooledScratch || cap(p.out) > maxPooledScratch {
		return
	}
	clear(p.seen)
	p.out = p.out[:0]
	prepPool.Put(p)
}

// preparedBatch is a normalized, deduplicated edge batch, held in
// pooled scratch until release.
type preparedBatch struct {
	parts   [][][2]uint32
	scratch []*prepScratch
}

func (b *preparedBatch) len() int {
	n := 0
	for _, p := range b.parts {
		n += len(p)
	}
	return n
}

func (b *preparedBatch) each(fn func(u, v uint32)) {
	for _, p := range b.parts {
		for _, e := range p {
			fn(e[0], e[1])
		}
	}
}

// flat appends the batch's edges to dst in apply order — the order
// the WAL must preserve for deterministic replay.
func (b *preparedBatch) flat(dst [][2]uint32) [][2]uint32 {
	for _, p := range b.parts {
		dst = append(dst, p...)
	}
	return dst
}

func (b *preparedBatch) release() {
	for _, sc := range b.scratch {
		putScratch(sc)
	}
	b.parts, b.scratch = nil, nil
}

// parallelBatchThreshold is the batch size below which preparation
// stays on the request goroutine; the fan-out only pays for itself
// on large batches.
const parallelBatchThreshold = 8192

// prepareBatch canonicalizes (u>v swapped), drops self loops and
// deduplicates a batch. Large batches are hash-partitioned across
// sched workers — each worker owns a disjoint slice of the edge
// space, so per-worker dedup is global dedup with no shared state.
// Edge order is not preserved across partitions; both counters are
// order-independent within a batch (duplicates are no-ops), so only
// reservoir tie-breaks observe it.
func (s *Server) prepareBatch(edges [][2]uint32) *preparedBatch {
	if len(edges) == 0 {
		return &preparedBatch{}
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(edges) < parallelBatchThreshold || workers < 2 {
		sc := getScratch()
		normalizeInto(sc, edges, 0, 1)
		return &preparedBatch{parts: [][][2]uint32{sc.out}, scratch: []*prepScratch{sc}}
	}
	if workers > 8 {
		workers = 8 // dedup is memory-bound; wider fan-out just thrashes
	}
	b := &preparedBatch{
		parts:   make([][][2]uint32, workers),
		scratch: make([]*prepScratch, workers),
	}
	for i := range b.scratch {
		b.scratch[i] = getScratch()
	}
	pool := sched.NewPool(workers)
	pool.RunTasks(workers, func(_, task int) {
		normalizeInto(b.scratch[task], edges, uint64(task), uint64(workers))
		b.parts[task] = b.scratch[task].out
	})
	return b
}

// normalizeInto scans the whole batch and keeps the edges this
// worker's hash partition owns: canonicalized, self loops dropped,
// first occurrence only.
func normalizeInto(sc *prepScratch, edges [][2]uint32, part, parts uint64) {
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if parts > 1 && edgeHash(u, v)%parts != part {
			continue
		}
		key := [2]uint32{u, v}
		if _, dup := sc.seen[key]; dup {
			continue
		}
		sc.seen[key] = struct{}{}
		sc.out = append(sc.out, key)
	}
}

// edgeHash mixes a canonical edge into a partition key
// (splitmix64-style finalizer: cheap and well-spread).
func edgeHash(u, v uint32) uint64 {
	x := uint64(u)<<32 | uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
