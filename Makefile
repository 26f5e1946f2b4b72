# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check race bench verify serve-smoke chaos experiments fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The pre-commit gate: formatting (gofmt must list no file), static
# analysis, the race-enabled short test subset (large cancellation
# graphs shrink under -short), and a full race-enabled pass over the
# observability and I/O-hardening surface (concurrent counter
# publication and the corrupt-input corpus are exactly where races and
# panics would hide). Every name in a -run pattern below must match a
# test in its packages: a pattern that matches nothing passes silently.
check:
	test -z "$$(gofmt -l .)"
	GO="$(GO)" scripts/check-run-patterns.sh
	$(GO) vet ./...
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/serve/
	$(GO) test -race ./internal/faults/
	$(GO) test -race ./internal/approx/
	$(GO) test -race -run 'TestReadLotusGraph|TestLotusGraphRoundTrip|TestLotusGraphFileCompat|TestStreaming' ./internal/core/
	# The randomized cross-check battery: every algorithm against brute
	# force, and lotus at a random grid size and shuffled streams
	# (with a third of the edges removed and re-added) against LOTUS's
	# class split over the same random hubs.
	$(GO) run ./cmd/lotus-verify -rounds 50
	# The one Algorithm 3 count (core.LotusGraph.CountWithOptions) over
	# a LOTUS grid, the flat structure being its p=1 case: every HNN
	# and NNN path (p=1..4 on one shared CountScratch, per-vertex; both
	# NNN kernels)
	# against a brute-force oracle, racing the per-worker hub and
	# vertex bitmaps and the dense-row index each path must build; the
	# bitmap-vs-merge NNN equivalence with its dispatch counters;
	# cancellation mid-HNN and mid-NNN leaving every bitmap clear; one
	# CountScratch reused across graph sizes and hub counts (so the
	# dense-row slab is laid out again); the Algorithm 2 walk
	# (concurrent H2H Sets, dense HE rows sorted through per-worker hub
	# bitmaps) held to the test-local relabel-and-split oracle, and each
	# shard's rows held to the p=1 rows; the phase-1 hub-pair kernel
	# held to the scalar probe, over one block and over grid blocks
	# with pair tiles; the walk's timed passes; and the phase-1 tile
	# work at worker counts below 1.
	$(GO) test -race -run 'TestShardEquivalence|TestHNNBitmapEquivalence|TestShardRowsMatchMonolithic' ./internal/core/
	$(GO) test -race -run 'TestIntersectKernelEquivalence|TestHNNCancellationLeavesBitmapsClear|TestCountScratchReuseAcrossGraphs|TestPreprocessBitIdentical|TestPreprocessPhaseSplit|TestPhase1KernelEquivalence|TestPhase1TileWorkClampsWorkers' ./internal/core/
	# Auto-tuner surface: the probe's parallel reductions, the policy,
	# and the cover-edge kernel's parallel sweep all race-tested in
	# full (they are small packages; the engine's auto kernel rides in
	# the -short pass above).
	$(GO) test -race ./internal/tune/ ./internal/stats/ ./internal/coveredge/
	# Generators and the CSR builder: the pipelined R-MAT draw blocks
	# and the parallel per-row sort, held to the golden CSR hashes and
	# the serial FromEdges oracle.
	$(GO) test -race ./internal/gen/ ./internal/graph/
	# Allocation gates run without -race (instrumentation changes the
	# profile they assert on): zero allocs/op on the warm /v1/count hit,
	# pooled-arena rehydration, slab reuse in DecodeInto. The race pass
	# over ./internal/serve/ above already hammers the same pool paths
	# concurrently.
	$(GO) test -run 'ZeroAlloc|Rehydration|ArenaIsolation|DecodeIntoReusesArena' ./internal/serve/ ./internal/compress/
	# The benchmark harness is its own module (bench/go.mod), so the
	# root ./... patterns never compile it: vet and test it here, or a
	# removed export it uses would only break at benchmark time.
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/... .

# One benchmark per paper table/figure (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem .

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

# Short fuzzing pass over the parsers and the degree ranking.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReadEdgeList -fuzztime=10s ./internal/graph
	$(GO) test -run=^$$ -fuzz=FuzzReadBinary -fuzztime=10s ./internal/graph
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/compress
	$(GO) test -run=^$$ -fuzz=FuzzReadLotusGraph -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzIntersectAgreement -fuzztime=10s ./internal/intersect
	$(GO) test -run=^$$ -fuzz=FuzzPartition -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzDegreeOrder -fuzztime=10s ./internal/reorder
	$(GO) test -run=^$$ -fuzz=FuzzTriest$$ -fuzztime=10s ./internal/approx
	$(GO) test -run=^$$ -fuzz=FuzzWALDecode -fuzztime=10s ./internal/serve

clean:
	$(GO) clean ./...
