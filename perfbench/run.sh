#!/usr/bin/env bash
# Builds the benchmark against this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload tableI-exact --seed 1 --seconds 12 --trace 0
#
# Every build artefact and Go cache stays under .bench_build/ in the
# checkout; the build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# Build output goes to stderr so the result stays the last line of stdout.
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
