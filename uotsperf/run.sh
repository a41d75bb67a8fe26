#!/usr/bin/env bash
# Builds the serving binaries and the uotsperf load generator from the sources
# of the checkout it is run from, then runs it:
#
#   bash uotsperf/run.sh --workload search-heavy --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache, generated corpora and the
# serving processes' logs.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -trimpath -o "$out/bin/" ./cmd/uotsdgen ./cmd/uotsserve ./cmd/uotsshard
(cd "$here" && go build -trimpath -o "$out/bin/uotsperf" .)
exec "$out/bin/uotsperf" "$@"
