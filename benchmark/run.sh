#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given, so that one command
# works in a fresh checkout:
#
#   bash benchmark/run.sh --workload bank-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go's build cache included) stays
# under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
