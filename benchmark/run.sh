#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, per-run stores) stays under .bench_build at the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/carebench" .)
cd "$root"
exec "$out/carebench" "$@"
