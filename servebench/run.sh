#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Every artifact (Go build cache, binary, spans, scratch WAL directories)
# stays under the build directory, $CARGO_TARGET_DIR or .bench_build,
# relative to the directory this is run from. All arguments are passed
# through, e.g.:
#
#	bash servebench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$out/servebench" .)
exec "$out/servebench" -outdir "$out/servebench-out" "$@"
