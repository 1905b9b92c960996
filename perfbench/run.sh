#!/usr/bin/env bash
# Builds examples/kvserver and the benchmark itself from the checkout the
# command runs in, then hands the arguments to the benchmark binary:
#
#   bash perfbench/run.sh --workload point-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binaries, the
# temporary WAL directories and the span dumps all live under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so the benchmark
# writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d examples/kvserver || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, examples/kvserver and perfbench/ must be present)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gotmp" "$build/config" "$build/cache"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$build/kvserver" ./examples/kvserver
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --server-bin "$build/kvserver" --build-dir "$build" "$@"
