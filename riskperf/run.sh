#!/usr/bin/env bash
# Builds the riskperf benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash riskperf/run.sh --workload paper-commodity --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all stay under .bench_build/ in the current directory, and
# the toolchain never reaches the network. Without the repository's
# sources next to riskperf/ the build fails and no result is printed.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/riskperf"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/riskperf" && go build -o "$out/riskperf" .) >&2
exec "$out/riskperf" "$@"
