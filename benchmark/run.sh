#!/usr/bin/env bash
# Builds the benchmark command from the checkout's source and runs it with
# the given arguments, for example:
#
#   bash benchmark/run.sh --workload infer-weak4 --seed 2024 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build writes (the
# Go build cache, the binary, the toolchain's own state) stays under
# $CARGO_TARGET_DIR, .bench_build by default, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" "$@"
