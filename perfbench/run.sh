#!/usr/bin/env bash
# Builds and runs the fleet benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and log stays under .bench_build in the
# checkout. The benchmark builds crserve and crshard from the same tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
