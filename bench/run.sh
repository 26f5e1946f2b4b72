#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments:
#
#   bash bench/run.sh --workload count-skewed --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, temporary files, span files) goes under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "run.sh: run me from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$out/lotus-bench" .)
exec "$out/lotus-bench" -workdir "$out" "$@"
