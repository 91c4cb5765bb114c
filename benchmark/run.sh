#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every file it writes —
# the Go build cache, the binary, span files, reports, store directories —
# stays inside the checkout (.bench_build/ and benchmark/out/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/ivm.go" ]; then
	echo "benchmark: $root is not a checkout of the ivm module; nothing to measure" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ivm-benchmark" .)
cd "$root"
exec "$build/ivm-benchmark" "$@"
