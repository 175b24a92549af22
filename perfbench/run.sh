#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, e.g.  bash perfbench/run.sh --workload randfault --seed 1 --seconds 20 --trace 0
# The build cache, the binary and every other Go tool output stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
