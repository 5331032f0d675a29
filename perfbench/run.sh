#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload lowres-sql --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build (binary, Go build cache and
# temporary files) stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
