package obs

// Counter names introduced by the kernel-selection work (PR 5). The
// older per-phase names ("phase1.ns", "hnn.he_intersections", ...)
// predate this file and are still passed as literals at their call
// sites; new kernel-level counters get constants so the core loops,
// the harness assertions and the DESIGN.md table cannot drift apart.
const (
	// Phase1WordOps counts 64-bit AND+popcount operations executed by
	// the word-parallel phase-1 kernel (each covers up to 64 pair
	// probes of the scalar kernel).
	Phase1WordOps = "phase1.word_ops"
	// Phase1RowsWord / Phase1RowsScalar count h1 rows routed to each
	// phase-1 kernel; under Phase1Auto their ratio shows what the
	// per-row heuristic actually chose.
	Phase1RowsWord   = "phase1.rows.word"
	Phase1RowsScalar = "phase1.rows.scalar"
	// HNNDispatchBitmap counts HE rows probed against the per-worker
	// hub bitmap in the HNN phase (flat, blocked, fused and sharded).
	HNNDispatchBitmap = "hnn.dispatch.bitmap"
	// HNNDispatchMerge / HNNDispatchGallop are retired: HNN no longer
	// dispatches between merge join and galloping search, so nothing
	// publishes them. The constants stay for readers of older reports.
	HNNDispatchMerge  = "hnn.dispatch.merge"
	HNNDispatchGallop = "hnn.dispatch.gallop"
	// NNNDispatchMerge / NNNDispatchGallop are the same split for the
	// NHE-row intersections of the NNN phase.
	NNNDispatchMerge  = "nnn.dispatch.merge"
	NNNDispatchGallop = "nnn.dispatch.gallop"
)

// Counter names of the session-durability and fault-injection work
// (PR 8). Defined here so the WAL/recovery code, the chaos tests and
// the DESIGN.md catalog cannot drift apart.
const (
	// StreamWALRecovered counts sessions restored from disk at startup.
	StreamWALRecovered = "stream.wal_recovered"
	// StreamWALTruncated counts recoveries that found a torn or corrupt
	// WAL tail and clipped it at the last valid frame.
	StreamWALTruncated = "stream.wal_truncated"
	// StreamWALFrames counts WAL frames replayed during recovery.
	StreamWALFrames = "stream.wal_frames"
	// StreamWALDegraded counts sessions whose durability was switched
	// off after repeated WAL failures (the session keeps serving from
	// memory instead of failing ingest).
	StreamWALDegraded = "stream.wal_degraded"
	// StreamSnapshots counts session snapshots written (periodic and
	// shutdown-flush).
	StreamSnapshots = "stream.snapshots"
	// StreamRecoverSkipped counts session directories that could not be
	// recovered at all (unreadable or corrupt snapshot) and were left
	// on disk for inspection.
	StreamRecoverSkipped = "stream.recover_skipped"
)

// Counter names of the kernel-family expansion and the structural
// auto-tuner (PR 10). The tune.* gauges mirror the Decision block of
// the run report so /metrics shows the last routing decision's inputs
// without parsing a report.
const (
	// TuneProbes counts auto-tuned runs (one structural probe each).
	TuneProbes = "tune.probes"
	// TuneProbeNS is the accumulated wall time of structural probes.
	TuneProbeNS = "tune.probe.ns"
	// TuneOverridden counts auto runs whose algorithm choice was forced
	// by an ablation override rather than the scoring policy.
	TuneOverridden = "tune.overridden"
	// TuneDecisionPrefix prefixes the per-algorithm decision counters:
	// "tune.decision.lotus" counts probes routed to the lotus kernel.
	TuneDecisionPrefix = "tune.decision."
	// TuneCacheHits counts serving-layer decisions answered from the
	// memoized "tune:" cache entry instead of a fresh probe.
	TuneCacheHits = "tune.cache_hits"
	// TuneStat* are gauges holding the last probe's policy inputs,
	// scaled to permille so the integer registry can carry them
	// (gini 0.42 -> 420; percentages are also x10).
	TuneStatGiniPermille        = "tune.stat.gini_permille"
	TuneStatHubCoveragePermille = "tune.stat.hub_coverage_permille"
	TuneStatH2HDensityPermille  = "tune.stat.h2h_density_permille"
	TuneStatAssortPermille      = "tune.stat.assortativity_permille"
)

// Counter names of the cover-edge kernel (PR 10).
const (
	// CoverBFSNS is the wall time of the BFS level assignment.
	CoverBFSNS = "coveredge.bfs.ns"
	// CoverLevels is the number of BFS levels (max over components).
	CoverLevels = "coveredge.levels"
	// CoverEdges counts horizontal (cover) edges: the only edges whose
	// neighbour lists the counting sweep intersects.
	CoverEdges = "coveredge.cover_edges"
	// CoverCountNS is the wall time of the weighted counting sweep.
	CoverCountNS = "coveredge.count.ns"
)

// Counter names of the sharded execution path (PR 6).
const (
	// ShardBlocks is the grid dimension p of a sharded build.
	ShardBlocks = "shard.blocks"
	// ShardPreprocessNS is the wall time of the grid build (plan +
	// every per-block structure).
	ShardPreprocessNS = "shard.preprocess.ns"
	// ShardTriples / ShardTiles count the live block triples and the
	// scheduled apex sub-range tasks of one sharded count.
	ShardTriples = "shard.triples"
	ShardTiles   = "shard.tiles"
	// ShardPolls counts cancellation polls in the sharded sweep.
	ShardPolls = "shard.polls"
	// ShardCountNS is the wall time of the sharded counting sweep.
	ShardCountNS = "shard.count.ns"
)
