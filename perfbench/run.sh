#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload simulate-gen --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the go command's own files live under
# .bench_build/perfbench in the current directory; nothing is fetched from
# the network.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
