#!/usr/bin/env bash
# Builds hostbench from source and runs it with the given arguments, e.g.
#
#   bash hostbench/run.sh --workload study_all --seed 1 --seconds 55 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go caches, the binary, scratch caches, traces) stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
# The benchmark is its own module next to the repository's; it builds the
# repository's packages through the replace directive in its go.mod.
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" --workdir "$out/work" "$@"
