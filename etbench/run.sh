#!/usr/bin/env bash
# Builds the etbench command from the checkout it is run in and runs one
# workload. Run it from the repository root:
#
#	bash etbench/run.sh --workload table2-nominal --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, the binary, scratch data
# directories) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/etbench" && go build -o "$build/etbench" .)
exec "$build/etbench" -root "$root" "$@"
