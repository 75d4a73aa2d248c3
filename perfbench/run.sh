#!/usr/bin/env bash
# Builds the shipped commands and the perfbench program from this checkout
# into .bench_build/, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ (the Go build cache included), and the last
# line of its output is the JSON result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/hijackstudy ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (need go.mod, cmd/ and perfbench/)" >&2
    exit 2
fi

root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" .bench_build/bin

go build -o .bench_build/bin/ ./cmd/hijacksim ./cmd/hijackstudy ./cmd/analyze ./cmd/riskd ./cmd/riskload >&2
(cd perfbench && go build -o "$root/.bench_build/bin/perfbench" .) >&2

exec .bench_build/bin/perfbench "$@"
