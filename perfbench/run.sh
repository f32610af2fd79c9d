#!/usr/bin/env bash
# Builds the coloring service and the benchmark from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pauli_oneshot --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, Go's temporary files and run files stay
# under the build directory ($CARGO_TARGET_DIR when set, else .bench_build,
# relative to the checkout root).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gotmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/picasso-serve" ./cmd/picasso-serve) >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" -serve-bin "$build/picasso-serve" -out "$build/perfbench-out" "$@"
