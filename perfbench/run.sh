#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload session-get --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# credential stores, result files) goes under .bench_build in the current
# directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's own configuration and telemetry counters live under the
# user config directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -root "$root" -out "$out" -commit "$commit" "$@"
