#!/usr/bin/env bash
# Builds dexpanderd and the benchmark from source into .bench_build/ at
# the checkout root, then runs one benchmark run. Every argument passes
# through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload ingest-query --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build caches stay under
# .bench_build/ and no module is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/dexpanderd" dexpander/cmd/dexpanderd
)
exec "$out/bin/perfbench" -daemon "$out/bin/dexpanderd" -out "$out" "$@"
