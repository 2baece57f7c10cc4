#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload edge-pair --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and durable logs stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/broker" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (go.mod, internal/ and e2ebench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --root "$root" "$@"
