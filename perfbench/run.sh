#!/usr/bin/env bash
# Builds the crawl benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload sb-paper --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout of the sbcrawl module. Everything the
# build and the run write stays under .bench_build/ in that checkout: the
# Go build cache, the binary, the run's temporary crawl stores (removed at
# exit) and the traced run's span files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f sbcrawl.go ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the root of a checkout of the sbcrawl module" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
