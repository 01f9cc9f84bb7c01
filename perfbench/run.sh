#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-single --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# go command's own config and telemetry files live in .bench_build/, so a
# run writes nothing outside the checkout. The benchmark needs no modules
# beyond the repository, so nothing is downloaded.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
