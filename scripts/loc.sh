#!/usr/bin/env sh
# Prints the lines of non-test Go outside benchmark/ — the running total
# ROADMAP aim 2 tracks, as E19/E20 computed it — and fails when it is above
# the checked-in ceiling (.github/loc-ceiling.txt): a PR may lower the
# ceiling, or raise it with the reason in EXPERIMENTS.md. Counts tracked
# files only.
set -eu
cd "$(dirname "$0")/.."
n="$(git ls-files '*.go' ':!*_test.go' ':!benchmark' | xargs wc -l | tail -1 | awk '{print $1}')"
ceiling="$(cat .github/loc-ceiling.txt)"
echo "non-test Go outside benchmark/: $n lines (ceiling $ceiling)"
if [ "$n" -gt "$ceiling" ]; then
	echo "code size $n is above the ceiling $ceiling: delete code, or raise .github/loc-ceiling.txt and say why in EXPERIMENTS.md" >&2
	exit 1
fi
