#!/usr/bin/env bash
# Builds the ledger benchmark from this checkout's sources and runs it
# with the given arguments. Run from the root of the repository:
#
#   bash ledger/run.sh --workload edit-stream --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files and the binary.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOFLAGS=

(cd "$root/ledger" && go build -o "$out/ledger" .)
exec "$out/ledger" "$@"
