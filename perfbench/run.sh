#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#
#   bash perfbench/run.sh --workload oltp-fit --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# inside the checkout (.bench_build/), and the traced run's spans land in
# .bench_out/. A build failure (for example, a directory holding only the
# benchmark and not the module it measures) exits non-zero without
# printing a result line.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$root/.bench_out" "$@"
