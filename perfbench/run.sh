#!/usr/bin/env bash
# Builds and runs the serving benchmark from the repository root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The binary, Go's build cache and every run's files (WAL directories,
# diagnostics, spans, result.json) go under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build=$root/$build
mkdir -p "$build"
# Keep the toolchain's cache and config writes inside the checkout too.
export GOCACHE=$build/gocache XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --out "$build/perfbench-runs" "$@"
