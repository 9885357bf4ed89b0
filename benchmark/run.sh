#!/usr/bin/env bash
# Builds stingmark from source and becomes it: no `go run`, no child left
# behind. Everything it writes stays in the checkout, under .bench_build/.
#
#   benchmark/run.sh                          full run: all seven workloads, untraced then traced
#   benchmark/run.sh -out a.json              ... appended to a result file
#   benchmark/run.sh -compare a.json b.json   verdict per (metric, workload)
#   benchmark/run.sh --workload remote_rtt --seed 7 --seconds 10 --trace 0
#                                             one workload, one JSON result line (the driver's contract)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -ldflags "-X main.commit=$commit" -o "$build/stingmark" .)
exec "$build/stingmark" "$@"
