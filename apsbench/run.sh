#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash apsbench/run.sh --workload repro-cold --seed 1 --seconds 6 --trace 0
# Build outputs, the Go build cache, the go command's temporary, config and
# telemetry files, and run outputs all stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/apsbench" && go build -o "$out/apsbench" .)
exec "$out/apsbench" "$@"
