#!/usr/bin/env bash
# Builds perfbench from this checkout and runs one workload:
#   bash perfbench/run.sh --workload detect_batch --seed 1 --seconds 25 --trace 0
# Everything it builds or writes stays under .bench_build/ in the
# checkout root, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --out "$build/perfbench" "$@"
