#!/usr/bin/env bash
# Builds xixad and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments:
#
#   bash xixabench/run.sh --workload read-tuned --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the durable workloads' WAL directories stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
if [ ! -f go.mod ] || [ ! -d cmd/xixad ] || [ ! -f xixabench/go.mod ]; then
	echo "run.sh: run from the root of a xixa checkout (need go.mod, cmd/xixad and xixabench/)" >&2
	exit 2
fi
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config
# directory and compiles in a temporary directory; keep both inside the
# checkout too.
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -buildvcs=false -o "$out/xixad" ./cmd/xixad >&2
(cd xixabench && go build -buildvcs=false -o "$out/xixabench" .) >&2
exec "$out/xixabench" -xixad "$out/xixad" -workdir "$out" "$@"
