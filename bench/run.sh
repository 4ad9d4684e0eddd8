#!/usr/bin/env bash
# Builds the benchmark and the mbbpd service from the sources of this
# checkout, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh --workload sweep-lanes --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh --seed 1                  # every workload, one child each
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the toolchain's configuration and
# telemetry, temporary files, both binaries, trace files and span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -C bench -o "$out/bench" .
go build -C bench -o "$out/mbbpd" mbbp/cmd/mbbpd

exec "$out/bench" -root "$root" -workdir "$out" -mbbpd "$out/mbbpd" "$@"
