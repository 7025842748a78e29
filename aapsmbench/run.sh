#!/usr/bin/env bash
# Builds the benchmark from source and runs it, forwarding every
# argument. Run from the repository root:
#
#   bash aapsmbench/run.sh --workload signoff --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module path, config (telemetry), temp files, the
# benchmark binary and any span dumps all live under .bench_build/ in the
# current directory, so nothing is written outside it. The benchmark needs no
# module beyond the repository itself, so nothing is downloaded.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/aapsmbench" .)
exec "$out/aapsmbench" -out "$out" "$@"
