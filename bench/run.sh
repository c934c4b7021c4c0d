#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the toolchain and the benchmark write — build
# cache, temporary files, telemetry, binaries, checkpoints — stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bspbench" .)
cd "$root"
exec "$build/bspbench" "$@"
