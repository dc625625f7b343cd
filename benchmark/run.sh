#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash benchmark/run.sh --workload map-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  The binary, the Go build cache and the
# toolchain's temporary and config files all go under .bench_build/, so a run
# writes nothing outside the checkout.  The build is offline: the benchmark
# imports only the standard library and the repository's own packages.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C benchmark build -o "$out/ababench" .
exec "$out/ababench" "$@"
