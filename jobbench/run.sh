#!/usr/bin/env bash
# Builds the job benchmark from source and runs it with the given
# arguments. Run from the repository root; build outputs, the Go build
# cache and Go's own state files stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/jobbench" build -o "$out/jobbench" .
exec "$out/jobbench" "$@"
