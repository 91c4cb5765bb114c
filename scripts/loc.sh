#!/usr/bin/env sh
# Prints the lines of non-test Go outside benchmark/ — the running total
# ROADMAP aim 2 tracks, as E19/E20 computed it. Counts tracked files only.
set -eu
cd "$(dirname "$0")/.."
n="$(git ls-files '*.go' ':!*_test.go' ':!benchmark' | xargs wc -l | tail -1 | awk '{print $1}')"
echo "non-test Go outside benchmark/: $n lines"
