#!/usr/bin/env sh
# Prints the lines of non-test Go outside benchmark/ — the running total
# ROADMAP aim 2 tracks, as E19/E20 computed it — and fails when it is above
# the checked-in ceiling (.github/loc-ceiling.txt): a PR may lower the
# ceiling, or raise it with the reason in EXPERIMENTS.md. It also prints
# the same total with tests included, which binds nothing but shows code
# moved into tests rather than deleted. Counts tracked files only.
set -eu
cd "$(dirname "$0")/.."
lines() { git ls-files "$@" | xargs cat | wc -l | tr -d ' '; }
n="$(lines '*.go' ':!*_test.go' ':!benchmark')"
all="$(lines '*.go' ':!benchmark')"
ceiling="$(cat .github/loc-ceiling.txt)"
echo "non-test Go outside benchmark/: $n lines (ceiling $ceiling)"
echo "Go outside benchmark/, tests included: $all lines"
if [ "$n" -gt "$ceiling" ]; then
	echo "code size $n is above the ceiling $ceiling: delete code, or raise .github/loc-ceiling.txt and say why in EXPERIMENTS.md" >&2
	exit 1
fi
