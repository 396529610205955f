#!/usr/bin/env bash
# Builds the fire-monitoring benchmark from source and runs it. Run from
# the repository root; every argument is passed to the benchmark:
#
#   bash firebench/run.sh --workload acquisition --seed 42 --seconds 30 --trace 0
#
# The build cache and the binary live under .bench_build/ in the
# repository, so the benchmark writes nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/firebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/firebench" && go build -o "$out/firebench" .) >&2
exec "$out/firebench" "$@"
