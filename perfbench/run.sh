#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, temporary files) and trace files go
# under .bench_build/perfbench/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Keep the Go tool's caches, temporary files and telemetry in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
