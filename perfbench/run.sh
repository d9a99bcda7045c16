#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload catalog --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, temporary files, the go command's config and telemetry) stays
# under .bench_build/ in the current directory, and the module cache is
# never consulted: the benchmark imports only the standard library and
# the repository's own packages.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOSUMDB=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
