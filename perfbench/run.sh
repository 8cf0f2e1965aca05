#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload apply-small --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# temporary files of the socket backends, span files and run records all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build)
# of the checkout. The last line of standard output is the result JSON;
# everything else goes to standard error.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
rm -rf "$build/tmp" && mkdir -p "$build/tmp"
go build -C perfbench -o "$build/perfbench" . >&2

# Socket paths are limited to about 100 bytes, so the socket backends'
# temporary directories are given relative to the checkout root.
export TMPDIR=${build#"$root"/}/tmp
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
