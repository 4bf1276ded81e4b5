#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet|offline|serve --seed N --seconds S --trace 0|1
#
# Every build product, cache and scratch file stays under .bench_build in
# the checkout (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
