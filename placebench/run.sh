#!/usr/bin/env bash
# Builds the placement benchmark from the checkout it sits in and runs it:
#
#   bash placebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash placebench/run.sh compare <set-a-dir> <set-b-dir>
#
# Every build artefact (Go build cache, binary) stays under .bench_build
# at the checkout root, so the script reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/placebench" && go build -o "$build/placebench" .)
cd "$root"
exec "$build/placebench" "$@"
