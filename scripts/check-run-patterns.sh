#!/usr/bin/env bash
# Fails when a name in a `go test -run '<A|B|...>' <pkgs>` line of the
# Makefile matches no test in those packages. `go test -run` with a
# pattern that matches nothing passes silently, so a renamed or deleted
# test would quietly drop out of the gate that names it.
#
# Usage (from the repository root): scripts/check-run-patterns.sh [Makefile]
# GO overrides the go command, as in the Makefile. Lines whose pattern
# is not single-quoted (the fuzz targets' -run=^$) are not checked.
set -euo pipefail

makefile=${1:-Makefile}
go=${GO:-go}
status=0

while IFS= read -r line; do
	pattern=${line#*-run \'}
	pattern=${pattern%%\'*}
	pkgs=()
	for word in ${line#*-run \'"$pattern"\'}; do
		case $word in
		./* | .) pkgs+=("$word") ;;
		esac
	done
	if [ ${#pkgs[@]} -eq 0 ]; then
		echo "check-run-patterns: no package in: $line" >&2
		status=1
		continue
	fi
	listed=$("$go" test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	IFS='|' read -r -a names <<<"$pattern"
	for name in "${names[@]}"; do
		if ! grep -qE -- "$name" <<<"$listed"; then
			echo "check-run-patterns: -run name '$name' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E "test .*-run '" "$makefile")

exit $status
