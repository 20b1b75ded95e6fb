#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds ordbench from source and runs it. Everything it writes — the Go
# build cache, the binary, store directories, the span file — goes under
# .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$(dirname "$0")"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off GOTOOLCHAIN=local GOFLAGS= \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		go build -o "$build/ordbench" ./cmd/ordbench
)
exec "$build/ordbench" -dir "$build" "$@"
