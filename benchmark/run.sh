#!/usr/bin/env bash
# Builds the benchmark program and the two serving binaries from this
# checkout, then runs the program with the given arguments. Run it from
# the checkout root:
#
#   bash benchmark/run.sh --workload cotree-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries and per-run logs. The
# go build calls are no-ops when nothing changed since the last run.
set -euo pipefail

root=$(pwd)
[ -f "$root/benchmark/go.mod" ] || { echo "run.sh: run from the checkout root" >&2; exit 2; }
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

# pathcoverd picks up its committed cmd/pathcoverd/default.pgo (-pgo=auto).
go build -o "$out/bin/" ./cmd/pathcoverd ./cmd/pathcover-gateway
(cd benchmark && go build -o "$out/bin/benchmark" .)

exec "$out/bin/benchmark" -bin "$out/bin" -out "$out/runs" "$@"
