#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 34 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary,
# trace files) stays under .bench_build/ in the repository root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
