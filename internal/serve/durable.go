package serve

// Session durability: periodic snapshots plus the WAL from wal.go,
// and the recovery path that rebuilds every session at startup.
//
// On-disk layout under Config.DataDir:
//
//	<data-dir>/sessions/<id>/snapshot.snap   one CRC frame (see below)
//	<data-dir>/sessions/<id>/wal-<gen>.log   frames since that snapshot
//
// A snapshot pairs with exactly one WAL generation: writing a snapshot
// rotates to a fresh wal-<gen+1>.log and removes the old log, and the
// snapshot records the generation it pairs with, so recovery never
// replays a tail against the wrong base. The snapshot itself is
// written tmp + fsync + rename + dir-fsync — a crash mid-write leaves
// the previous snapshot/WAL pair intact.
//
// Recovery determinism: an exact session's per-class counts are
// order-independent functions of its edge set, so snapshot-edges +
// WAL replay restores them bit-identically. An approx session's
// reservoir state is restored exactly as persisted; its RNG is
// reseeded (see approx.TriestState), so post-restart draws are an
// equally valid continuation — unless the snapshot is the genesis
// state, in which case replaying the full WAL with the persisted seed
// reproduces the original run draw-for-draw. An auto session's
// exact->approx flip replays deterministically from the WAL batch
// order, so no explicit degrade record is needed.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"lotustc/internal/approx"
	"lotustc/internal/compress"
	"lotustc/internal/core"
	"lotustc/internal/faults"
	"lotustc/internal/obs"
)

// durability is the server's durability configuration; a nil/empty
// dir disables persistence entirely (the pre-durability behavior).
type durability struct {
	dir           string
	syncAlways    bool
	snapshotBytes int64
}

func (d *durability) enabled() bool { return d != nil && d.dir != "" }

func (d *durability) sessionsRoot() string { return filepath.Join(d.dir, "sessions") }

func (d *durability) sessionDir(id string) string { return filepath.Join(d.sessionsRoot(), id) }

func walFileName(gen uint64) string { return fmt.Sprintf("wal-%d.log", gen) }

// ---------------------------------------------------------------
// Snapshot payload codec.

const (
	snapshotMagic   = 'S'
	snapshotVersion = 1

	snapFlagReservoir = 1 << 0 // state is a Triest reservoir, not an edge set
	snapFlagDegraded  = 1 << 1 // auto session already flipped to approx
	snapFlagNonHub    = 1 << 2 // exact counter maintains NNN too

	// Structural sanity caps for the decoder: a snapshot claiming more
	// is corrupt, not big.
	maxSnapVertices = 1 << 31
	maxSnapHubs     = 1 << 24
	maxSnapEdges    = 1 << 28
)

// sessionSnapshot is the decoded form of a persisted session.
type sessionSnapshot struct {
	mode        string
	degraded    bool
	countNonHub bool
	vertices    int
	hubs        []uint32
	budget      int64
	seed        int64
	window      uint64
	walGen      uint64
	reservoir   *approx.TriestState // non-nil: approx state
	edges       [][2]uint32         // exact edge set otherwise
}

// snapBufPool recycles snapshot payload and frame buffers across the
// periodic snapshot cadence; a busy exact session re-serializes its
// whole edge set every SnapshotBytes of WAL, so the slabs are worth
// keeping warm.
var snapBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// encodeSessionSnapshot serializes the session's full restart state
// into dst. Caller holds ss.mu, so the counters are quiescent.
func encodeSessionSnapshot(dst []byte, ss *streamSession, walGen uint64) ([]byte, error) {
	p := dst
	p = append(p, snapshotMagic, snapshotVersion)
	var modeB byte
	switch ss.mode {
	case "exact":
		modeB = 0
	case "approx":
		modeB = 1
	case "auto":
		modeB = 2
	default:
		return nil, fmt.Errorf("serve: snapshot: unknown mode %q", ss.mode)
	}
	p = append(p, modeB)
	sc := ss.sc
	var flags byte
	if sc == nil {
		flags |= snapFlagReservoir
	}
	if ss.degraded {
		flags |= snapFlagDegraded
	}
	if ss.countNonHub {
		flags |= snapFlagNonHub
	}
	p = append(p, flags)
	p = compress.AppendUvarint(p, uint64(ss.vertices))
	p = compress.AppendUvarint(p, uint64(len(ss.hubIDs)))
	for _, h := range ss.hubIDs {
		p = compress.AppendUvarint(p, uint64(h))
	}
	p = compress.AppendUvarint(p, uint64(ss.budget))
	p = compress.AppendZigzag(p, ss.degradeSeed)
	p = compress.AppendUvarint(p, ss.degradeWindow)
	p = compress.AppendUvarint(p, walGen)
	if sc != nil {
		edges := sc.SnapshotEdges(nil)
		p = compress.AppendUvarint(p, uint64(len(edges)))
		p = compress.AppendEdgeStream(p, edges)
		return p, nil
	}
	st := ss.tr.State()
	p = compress.AppendUvarint(p, uint64(st.Cap))
	p = compress.AppendUvarint(p, st.Seen)
	p = compress.AppendUvarint(p, st.Removed)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(st.Estimate))
	p = compress.AppendUvarint(p, uint64(len(st.Edges)))
	p = compress.AppendEdgeStream(p, st.Edges)
	for _, t := range st.Times {
		p = compress.AppendUvarint(p, t)
	}
	return p, nil
}

// decodeSessionSnapshot parses a snapshot payload. The input crossed a
// process restart, so every count is bounds-checked before it sizes an
// allocation; validation of the reservoir invariants themselves is
// RestoreTriest's job.
func decodeSessionSnapshot(p []byte) (*sessionSnapshot, error) {
	pos := 0
	readU := func(what string, cap uint64) (uint64, error) {
		x, n := compress.ReadUvarint(p[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("serve: snapshot: truncated %s", what)
		}
		if cap > 0 && x > cap {
			return 0, fmt.Errorf("serve: snapshot: %s %d exceeds cap %d", what, x, cap)
		}
		pos += n
		return x, nil
	}
	if len(p) < 4 || p[0] != snapshotMagic {
		return nil, fmt.Errorf("serve: snapshot: bad magic")
	}
	if p[1] != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot: unknown version %d", p[1])
	}
	snap := &sessionSnapshot{}
	switch p[2] {
	case 0:
		snap.mode = "exact"
	case 1:
		snap.mode = "approx"
	case 2:
		snap.mode = "auto"
	default:
		return nil, fmt.Errorf("serve: snapshot: unknown mode byte %d", p[2])
	}
	flags := p[3]
	snap.degraded = flags&snapFlagDegraded != 0
	snap.countNonHub = flags&snapFlagNonHub != 0
	pos = 4

	v, err := readU("vertex count", maxSnapVertices)
	if err != nil {
		return nil, err
	}
	snap.vertices = int(v)
	nh, err := readU("hub count", maxSnapHubs)
	if err != nil {
		return nil, err
	}
	snap.hubs = make([]uint32, nh)
	for i := range snap.hubs {
		h, err := readU("hub id", math.MaxUint32)
		if err != nil {
			return nil, err
		}
		snap.hubs[i] = uint32(h)
	}
	b, err := readU("budget", math.MaxInt64)
	if err != nil {
		return nil, err
	}
	snap.budget = int64(b)
	seed, n := compress.ReadZigzag(p[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("serve: snapshot: truncated seed")
	}
	pos += n
	snap.seed = seed
	if snap.window, err = readU("window", 0); err != nil {
		return nil, err
	}
	if snap.walGen, err = readU("wal generation", 0); err != nil {
		return nil, err
	}

	if flags&snapFlagReservoir == 0 {
		ne, err := readU("edge count", maxSnapEdges)
		if err != nil {
			return nil, err
		}
		edges, consumed, err := compress.ReadEdgeStream(p[pos:], int(ne))
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot: %v", err)
		}
		pos += consumed
		snap.edges = edges
		if pos != len(p) {
			return nil, fmt.Errorf("serve: snapshot: %d trailing bytes", len(p)-pos)
		}
		return snap, nil
	}

	st := &approx.TriestState{Window: snap.window}
	cp, err := readU("reservoir cap", maxSnapEdges)
	if err != nil {
		return nil, err
	}
	st.Cap = int(cp)
	if st.Seen, err = readU("stream clock", 0); err != nil {
		return nil, err
	}
	if st.Removed, err = readU("removed count", 0); err != nil {
		return nil, err
	}
	if pos+8 > len(p) {
		return nil, fmt.Errorf("serve: snapshot: truncated estimate")
	}
	st.Estimate = math.Float64frombits(binary.LittleEndian.Uint64(p[pos:]))
	pos += 8
	nr, err := readU("reservoir size", maxSnapEdges)
	if err != nil {
		return nil, err
	}
	edges, consumed, err := compress.ReadEdgeStream(p[pos:], int(nr))
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot: %v", err)
	}
	pos += consumed
	st.Edges = edges
	st.Times = make([]uint64, nr)
	for i := range st.Times {
		if st.Times[i], err = readU("arrival time", 0); err != nil {
			return nil, err
		}
	}
	if pos != len(p) {
		return nil, fmt.Errorf("serve: snapshot: %d trailing bytes", len(p)-pos)
	}
	snap.reservoir = st
	return snap, nil
}

// ---------------------------------------------------------------
// Snapshot + rotation on the live server.

// snapshotLocked persists ss's current state atomically and rotates
// the WAL to a fresh generation: snapshot.tmp + fsync + rename +
// dir-fsync, then create wal-<gen+1>.log and drop the old log. On
// success the session's durability is (re)armed — a session whose WAL
// degraded earlier becomes durable again if a later snapshot lands
// (the shutdown flush uses this as a last chance). Caller holds ss.mu.
func (s *Server) snapshotLocked(ss *streamSession) error {
	sdir := s.dur.sessionDir(ss.id)
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return err
	}
	gen := ss.walGen + 1
	pb := snapBufPool.Get().(*[]byte)
	payload, err := encodeSessionSnapshot((*pb)[:0], ss, gen)
	if err == nil {
		err = writeSnapshotFile(sdir, payload)
	}
	*pb = payload[:0]
	snapBufPool.Put(pb)
	if err != nil {
		return err
	}
	w, err := createWAL(filepath.Join(sdir, walFileName(gen)), s.dur.syncAlways)
	if err != nil {
		return err
	}
	old := ss.wal
	ss.wal, ss.walGen = w, gen
	ss.walActive.Store(true)
	ss.durDegraded.Store(false)
	if old != nil {
		_ = old.close()
		_ = os.Remove(old.path)
	}
	s.met.Add(obs.StreamSnapshots, 1)
	return nil
}

// writeSnapshotFile writes payload as one CRC frame via the atomic
// tmp/rename dance. The fsyncs pass the wal.fsync fault point with the
// same bounded retries as the live WAL.
func writeSnapshotFile(sdir string, payload []byte) error {
	fb := snapBufPool.Get().(*[]byte)
	frame := appendWALFrame((*fb)[:0], payload)
	defer func() { *fb = frame[:0]; snapBufPool.Put(fb) }()
	tmp := filepath.Join(sdir, "snapshot.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(sdir, "snapshot.snap")); err != nil {
		return err
	}
	return syncDir(sdir)
}

func syncFile(f *os.File) error {
	return faults.Retry(context.Background(), walRetryPolicy, func() error {
		if err := faults.Inject(FaultWALFsync); err != nil {
			return err
		}
		return f.Sync()
	})
}

func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := df.Sync()
	cerr := df.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// walAppendLocked journals a prepared batch before it is applied
// (write-ahead). WAL failure — after the bounded retries inside
// appendBatch — never fails the ingest: the session degrades to
// memory-only and keeps serving. Caller holds ss.mu.
func (s *Server) walAppendLocked(ss *streamSession, adds, rems *preparedBatch) {
	if ss.wal == nil {
		return
	}
	ss.walAdds = adds.flat(ss.walAdds[:0])
	ss.walRems = rems.flat(ss.walRems[:0])
	if err := ss.wal.appendBatch(ss.walAdds, ss.walRems); err != nil {
		s.degradeDurabilityLocked(ss)
	}
}

// degradeDurabilityLocked flips a session to memory-only after
// persistent WAL failure. The session keeps ingesting and serving;
// StreamState reports durability "degraded". Caller holds ss.mu.
func (s *Server) degradeDurabilityLocked(ss *streamSession) {
	if ss.wal != nil {
		_ = ss.wal.close()
		ss.wal = nil
	}
	ss.walActive.Store(false)
	ss.durDegraded.Store(true)
	s.met.Add(obs.StreamWALDegraded, 1)
}

// maybeSnapshotLocked rotates snapshot+WAL once the live log crosses
// the configured byte threshold, bounding both recovery replay time
// and disk growth. Caller holds ss.mu.
func (s *Server) maybeSnapshotLocked(ss *streamSession) {
	if ss.wal == nil || ss.wal.size < s.dur.snapshotBytes {
		return
	}
	if err := s.snapshotLocked(ss); err != nil {
		s.degradeDurabilityLocked(ss)
	}
}

// flushSessions snapshots every live session so a restart replays a
// fresh snapshot and an empty WAL. Sessions whose durability degraded
// get one more snapshot attempt — shutdown is the last chance to save
// their state. Called from Close after the HTTP listener has drained.
func (s *Server) flushSessions() {
	for _, ss := range s.streams.list() {
		ss.mu.Lock()
		if err := s.snapshotLocked(ss); err != nil {
			s.degradeDurabilityLocked(ss)
		}
		if ss.wal != nil {
			_ = ss.wal.close()
			ss.wal = nil
		}
		ss.mu.Unlock()
	}
}

// Close shuts the server down for process exit: drain, cancel
// detached builds, flush session snapshots. Call it after the HTTP
// server has stopped accepting requests. A Server abandoned without
// Close simulates a crash — that is exactly what the chaos tests do.
func (s *Server) Close() {
	s.BeginDrain()
	s.cache.shutdown()
	if s.dur.enabled() {
		s.flushSessions()
	}
}

// ---------------------------------------------------------------
// Recovery.

// Recover restores every persisted session from the data directory:
// snapshot first, then the paired WAL tail, clipping torn or corrupt
// tails at the last valid frame. Call it once after New when DataDir
// is set; until it returns, /readyz answers 503 "recovering" and the
// session endpoints refuse work. A session directory that cannot be
// recovered at all is skipped (stream.recover_skipped) and left on
// disk for inspection — one corrupt tenant must not block the rest.
func (s *Server) Recover() {
	defer s.recovering.Store(false)
	if !s.dur.enabled() {
		return
	}
	entries, err := os.ReadDir(s.dur.sessionsRoot())
	if err != nil {
		return // nothing persisted yet
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if err := s.recoverSession(ent.Name()); err != nil {
			s.met.Add(obs.StreamRecoverSkipped, 1)
		}
	}
}

func (s *Server) recoverSession(id string) error {
	sdir := s.dur.sessionDir(id)
	raw, err := os.ReadFile(filepath.Join(sdir, "snapshot.snap"))
	if err != nil {
		return err
	}
	payload, consumed, err := decodeWALFrame(raw)
	if err != nil {
		return fmt.Errorf("serve: session %s snapshot: %w", id, err)
	}
	if consumed != len(raw) {
		return fmt.Errorf("serve: session %s snapshot: trailing bytes", id)
	}
	snap, err := decodeSessionSnapshot(payload)
	if err != nil {
		return err
	}

	ss := &streamSession{
		mode:          snap.mode,
		auto:          snap.mode == "auto",
		budget:        snap.budget,
		degradeSeed:   snap.seed,
		degradeWindow: snap.window,
		vertices:      snap.vertices,
		hubIDs:        snap.hubs,
		countNonHub:   snap.countNonHub,
		walGen:        snap.walGen,
	}
	if snap.reservoir != nil {
		tr, err := approx.RestoreTriest(snap.reservoir, snap.seed)
		if err != nil {
			return err
		}
		ss.tr = tr
		ss.degraded = snap.degraded
	} else {
		sc, err := core.NewStreaming(snap.vertices, snap.hubs)
		if err != nil {
			return err
		}
		sc.CountNonHub = snap.countNonHub
		for _, e := range snap.edges {
			sc.AddEdge(e[0], e[1])
		}
		ss.sc = sc
	}
	ss.publishLocked()

	// Replay the WAL tail through the same applyLocked path as live
	// ingest — including a deterministic re-run of an auto session's
	// exact->approx flip. A missing WAL file (crash between the
	// snapshot rename and the log create) is an empty tail.
	walPath := filepath.Join(sdir, walFileName(snap.walGen))
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	var frames int64
	validLen, clean := scanWALFrames(data, func(p []byte) error {
		adds, rems, err := decodeBatchRecord(p)
		if err != nil {
			return err
		}
		ab := &preparedBatch{parts: [][][2]uint32{adds}}
		rb := &preparedBatch{parts: [][][2]uint32{rems}}
		ss.applyLocked(s, ab, rb)
		frames++
		return nil
	})
	if !clean {
		if err := os.Truncate(walPath, validLen); err != nil {
			return err
		}
		s.met.Add(obs.StreamWALTruncated, 1)
	}
	w, err := openWALAppend(walPath, validLen, s.dur.syncAlways)
	if err != nil {
		return err
	}
	ss.wal = w
	ss.walActive.Store(true)
	s.streams.restore(ss, id)

	// Clear leftovers of an interrupted rotation.
	if stray, err := filepath.Glob(filepath.Join(sdir, "wal-*.log")); err == nil {
		for _, p := range stray {
			if p != walPath {
				_ = os.Remove(p)
			}
		}
	}
	_ = os.Remove(filepath.Join(sdir, "snapshot.tmp"))
	s.met.Add(obs.StreamWALRecovered, 1)
	s.met.Add(obs.StreamWALFrames, frames)
	return nil
}

// restore registers a recovered session under its original ID and
// advances the ID counter past it so newly created sessions never
// collide. Recovery ignores the MaxStreams cap on purpose: dropping a
// tenant's persisted data because an operator lowered a limit would
// be worse than briefly exceeding it.
func (r *streamRegistry) restore(ss *streamSession, id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss.id = id
	r.sessions[id] = ss
	if n, err := strconv.ParseUint(strings.TrimPrefix(id, "s"), 10, 64); err == nil {
		for {
			cur := r.nextID.Load()
			if n <= cur || r.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
}
