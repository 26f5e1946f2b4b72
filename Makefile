# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check race bench bench-report verify serve-smoke chaos experiments fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The pre-commit gate: static analysis, the race-enabled short test
# subset (large cancellation graphs shrink under -short), and a full
# race-enabled pass over the observability and I/O-hardening surface
# (concurrent counter publication and the corrupt-input corpus are
# exactly where races and panics would hide).
check:
	$(GO) vet ./...
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/serve/
	$(GO) test -race ./internal/faults/
	$(GO) test -race ./internal/approx/
	$(GO) test -race -run 'TestReadLotusGraph|TestLotusGraphRoundTrip|TestStreaming' ./internal/core/
	# Every HNN path (flat, blocked, fused, sharded p=1..4, per-vertex)
	# against a brute-force oracle, racing the per-worker hub bitmaps.
	$(GO) test -race -run 'TestShardEquivalence|TestHNNBitmapEquivalence' ./internal/shard/
	$(GO) test -race -run 'TestHNNCancellationLeavesBitmapsClear' ./internal/core/
	# Auto-tuner surface: the probe's parallel reductions, the policy,
	# and the cover-edge kernel's parallel sweep all race-tested in
	# full (they are small packages; the engine's auto kernel rides in
	# the -short pass above).
	$(GO) test -race ./internal/tune/ ./internal/stats/ ./internal/coveredge/
	# Allocation gates run without -race (instrumentation changes the
	# profile they assert on): zero allocs/op on the warm /v1/count hit,
	# pooled-arena rehydration, slab reuse in DecodeInto. The race pass
	# over ./internal/serve/ above already hammers the same pool paths
	# concurrently.
	$(GO) test -run 'ZeroAlloc|Rehydration|ArenaIsolation|DecodeIntoReusesArena' ./internal/serve/ ./internal/compress/

race:
	$(GO) test -race ./internal/... .

# One benchmark per paper table/figure (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable comparator sweep with full metrics; BENCH_PR10.json
# is the artifact future PRs diff for perf trajectories (BENCH_PR2,
# BENCH_PR5, BENCH_PR6, BENCH_PR7 and BENCH_PR9 are the earlier
# snapshots). Scale 15 so the phase-1 kernel ablation rows
# (lotus/phase1=*, lotus/intersect=*), the sharded p=1/2/4 sweep
# (lotus-sharded/p=*), the streaming-ingest throughput rows
# (stream-ingest/exact vs approx), the serve-cache residency rows
# (serve-cache/raw vs compressed) and the new auto-vs-fixed tuner
# sweep (tune/auto vs tune/lotus, tune/cover-edge,
# tune/degree-partition, best-of-3 per row) measure real work.
bench-report:
	$(GO) run ./cmd/lotus-bench -report json -scale 15 -o BENCH_PR10.json

# Randomized cross-validation of every algorithm and extension.
verify:
	$(GO) run ./cmd/lotus-verify -rounds 50

# Boot lotus-serve on a loopback port, count a scale-12 R-MAT graph
# twice, and assert 200 + nonzero triangles + a >= 10x result-cache
# speedup on the repeat query.
serve-smoke:
	$(GO) run ./cmd/lotus-serve -smoke -smoke-scale 12

# Kill/restart + fault-injection chaos suite over the durable session
# layer, race-enabled: exact sessions must recover bit-identically,
# approx sessions draw-for-draw, torn WAL tails clip cleanly, and
# every registered fault point degrades without corrupting state.
chaos:
	$(GO) test -race -run 'TestChaos|TestRecovering|TestShutdownCancels|TestAdmitReleases|TestWAL' -v ./internal/serve/

# Regenerate every table and figure (writes nothing; see EXPERIMENTS.md
# for an archived run).
experiments:
	$(GO) run ./cmd/lotus-bench -all -scale 15 -edgefactor 16

# Short fuzzing pass over the parsers.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/graph
	$(GO) test -run=^$$ -fuzz=FuzzReadBinary -fuzztime=10s ./internal/graph
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/compress
	$(GO) test -run=^$$ -fuzz=FuzzReadLotusGraph -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzIntersectAgreement -fuzztime=10s ./internal/intersect
	$(GO) test -run=^$$ -fuzz=FuzzPartition -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzTriest$$ -fuzztime=10s ./internal/approx
	$(GO) test -run=^$$ -fuzz=FuzzWALDecode -fuzztime=10s ./internal/serve

clean:
	$(GO) clean ./...
