#!/usr/bin/env sh
# The unsafe allow-list: outside tests, only internal/relation/relation.go
# may import "unsafe" (the stored cell's tuple pointer and the key behind
# it, DESIGN.md §4).
set -eu
cd "$(dirname "$0")/.."
bad="$(grep -rl '"unsafe"' --include='*.go' . | grep -v -e '_test\.go$' -e '^\./internal/relation/relation\.go$' || true)"
if [ -n "$bad" ]; then
	echo "\"unsafe\" imported outside the allow-list:" >&2
	echo "$bad" >&2
	exit 1
fi
