#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload mul-http-lp --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build caches, the binary, spans and
# reports all go under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
