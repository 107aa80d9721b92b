#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-a --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache, scratch stores and span files all go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
