#!/usr/bin/env bash
# Builds the benchmark and the tuned daemon from the checkout it is run in,
# then runs one workload of the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-tune --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes, the Go build cache included, goes under
# .bench_build/ at the root. Without the repository's sources next to it the
# build fails and it exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
go build -o "$out/tuned" ./cmd/tuned
exec "$out/perfbench" -tuned "$out/tuned" -out "$out" "$@"
