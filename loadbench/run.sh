#!/usr/bin/env bash
# Builds erserve and the load driver from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash loadbench/run.sh --limit-ms match-hot=40 --workload match-hot --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch data stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/erserve || ! -f loadbench/go.mod ]]; then
	echo "loadbench: run from the repository root (needs go.mod, cmd/erserve and loadbench/)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go build -o "$out/bin/erserve" ./cmd/erserve
(cd loadbench && go build -o "$out/bin/loadbench" .)
exec "$out/bin/loadbench" -erserve "$out/bin/erserve" -out "$out" "$@"
