#!/usr/bin/env bash
# Builds the benchmark tool from this checkout's sources and runs it with
# the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, module cache, the Go
# command's config and telemetry files, the binary, run scratch) stays
# under .bench_build/ in the checkout. The build needs no network: the
# tool's module replaces the repository module with the checkout itself,
# which has no dependencies outside the standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
