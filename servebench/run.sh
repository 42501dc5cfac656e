#!/usr/bin/env bash
# Builds surged from the source tree in the current directory and the
# benchmark beside it, then runs one workload:
#
#   bash servebench/run.sh --workload taxi-ccs --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in that directory (or $CARGO_TARGET_DIR).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
# Keep the Go toolchain's caches and temporary files inside the build dir.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/surged" ]; then
	echo "run.sh: $root is not the repository root (no go.mod / cmd/surged)" >&2
	exit 2
fi
mkdir -p "$out/tmp" "$out/home"
go build -o "$out/surged" ./cmd/surged
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -surged "$out/surged" -work "$out/tmp" "$@"
