#!/usr/bin/env sh
# Docs lint, runnable locally (`make docs-lint`) and in CI: the README
# must stay within its line budget (the deep dives belong in docs/),
# the docs/ pages the README points at must exist, and every relative
# markdown link in README.md and docs/*.md must resolve to a real file;
# and README.md, DESIGN.md and docs/*.md may name only `ivmd -flag` /
# `ivmbench -flag` flags the command's main.go defines, backticked
# `-flag`s some cmd/*/main.go defines (or `go test`'s), `make <target>`
# targets the Makefile has, `GET|POST|DELETE /v1/…` routes
# internal/server/server.go registers (each of which docs/SERVING.md
# names), and `With…(`/`Without…(` options, `IVM_…` variables and
# backticked `…_total`/`…_seconds` series that non-test Go still defines,
# reads or registers; and docs/SERVING.md's metric table must name exactly
# the series non-test Go registers.
set -eu

README_BUDGET="${README_BUDGET:-250}"

LINES="$(wc -l <README.md)"
if [ "$LINES" -gt "$README_BUDGET" ]; then
    echo "README.md is $LINES lines, over the $README_BUDGET-line budget:" >&2
    echo "move deep-dive material into docs/ and link it instead" >&2
    exit 1
fi
echo "README.md: $LINES lines (budget $README_BUDGET)"

# The pages the cluster story depends on must exist by name — a rename
# that forgets the README pointer should fail here, not in a 404.
for page in docs/OPERATIONS.md docs/SERVING.md docs/REPLICATION.md docs/CI.md; do
    if [ ! -f "$page" ]; then
        echo "required docs page missing: $page" >&2
        exit 1
    fi
done

# Every relative markdown link target must exist. Extract ](path) and
# ](path#anchor) targets, skip absolute URLs and pure anchors, and
# resolve each against the linking file's directory.
FAILED=0
for f in README.md docs/*.md; do
    dir="$(dirname "$f")"
    for target in $(grep -o ']([^)]*)' "$f" | sed 's/^](//; s/)$//; s/#.*//'); do
        case "$target" in
        '' | http://* | https://* | mailto:*) continue ;;
        # ../../actions/... style links resolve against the GitHub web
        # UI, not the working tree — anything escaping the repo root
        # is out of scope for a filesystem check.
        ../../*) continue ;;
        esac
        case "$target" in
        /*) path=".$target" ;;
        *) path="$dir/$target" ;;
        esac
        if [ ! -e "$path" ]; then
            echo "$f: broken link -> $target" >&2
            FAILED=1
        fi
    done
done

# A flag or make target the docs name must exist. A command line runs
# from the command's name to the end of the line, a backtick or a pipe
# (backslash continuations joined first); every -word on it is a flag.
for cmd in ivmd ivmbench; do
    defined="$(grep -o 'flag\.[A-Za-z0-9]*("[^"]*"' "cmd/$cmd/main.go" | sed 's/.*("//; s/"$//')"
    for f in README.md DESIGN.md docs/*.md; do
        for flag in $(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$f" |
            grep -oE "(^|[^a-z])$cmd( +[^ \`|]+)+" | tr ' ' '\n' |
            sed -n 's/^-\([a-z][a-z0-9-]*\).*/\1/p' | sort -u); do
            if ! echo "$defined" | grep -qx -- "$flag"; then
                echo "$f: names $cmd -$flag, which cmd/$cmd/main.go does not define" >&2
                FAILED=1
            fi
        done
    done
done
# A backticked `-flag` on its own is a flag too: some cmd/*/main.go must
# define it, unless it is one of the go toolchain's that the docs cite.
defined="$(cat cmd/*/main.go | grep -o 'flag\.[A-Za-z0-9]*("[^"]*"' | sed 's/.*("//; s/"$//')"
for f in README.md DESIGN.md docs/*.md; do
    for flag in $(grep -oE '`-[a-z][a-z0-9-]*`' "$f" | tr -d '`' | sed 's/^-//' | sort -u); do
        case "$flag" in race | coverprofile) continue ;; esac
        if ! echo "$defined" | grep -qx -- "$flag"; then
            echo "$f: names \`-$flag\`, which no cmd/*/main.go defines" >&2
            FAILED=1
        fi
    done
    for target in $(grep -oE '(^|`|: )make +[a-z][a-z0-9-]*' "$f" | sed 's/.*make  *//' | sort -u); do
        if ! grep -q "^$target:" Makefile; then
            echo "$f: names make $target, which the Makefile does not have" >&2
            FAILED=1
        fi
    done
done

# An option, environment variable or metric series the docs name must
# still exist: an option as a func some non-test Go defines, a variable as
# a name some non-test Go mentions, a series (a backticked word ending
# _total or _seconds, or a histogram's _count/_sum_ns line; patterns with
# a * are skipped) as a string literal in non-test Go outside benchmark/.
GO_ALL="$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*')"
GO_CORE="$(echo "$GO_ALL" | grep -v '^\./benchmark/')"
for f in README.md DESIGN.md docs/*.md; do
    for opt in $(grep -oE '\bWith(out)?[A-Z][A-Za-z]*\(' "$f" | tr -d '(' | sort -u); do
        if ! grep -q "^func $opt(" $GO_ALL; then
            echo "$f: names option $opt(, which no non-test Go defines" >&2
            FAILED=1
        fi
    done
    for var in $(grep -oE 'IVM_[A-Z_]+' "$f" | sort -u); do
        if ! grep -q "$var" $GO_ALL; then
            echo "$f: names variable $var, which no non-test Go reads" >&2
            FAILED=1
        fi
    done
    for series in $(grep -oE '`[a-z0-9_]+(_total|_seconds)(_count|_sum_ns)?`' "$f" |
        tr -d '`' | sed -E 's/_(count|sum_ns)$//' | sort -u); do
        if ! grep -q "\"$series\"" $GO_CORE; then
            echo "$f: names series $series, which no non-test Go outside benchmark/ registers" >&2
            FAILED=1
        fi
    done
done
# docs/SERVING.md's metric table is the reference, one row per series by
# full name: it must name every series non-test Go outside benchmark/
# registers (a literal handed to .Counter, .Gauge or .Histogram), and no
# series that nothing registers.
registered="$(grep -ohE '\.(Counter|Gauge|Histogram)\("[a-z0-9_]+"\)' $GO_CORE | sed -E 's/.*\("//; s/"\)$//' | sort -u)"
tabled="$(sed -n 's/^| `\([a-z0-9_]*\)` |.*/\1/p' docs/SERVING.md | sort -u)"
for series in $registered; do
    if ! echo "$tabled" | grep -qx -- "$series"; then
        echo "docs/SERVING.md's metric table lacks $series, which non-test Go outside benchmark/ registers" >&2
        FAILED=1
    fi
done
for series in $tabled; do
    if ! echo "$registered" | grep -qx -- "$series"; then
        echo "docs/SERVING.md's metric table names $series, which no non-test Go outside benchmark/ registers" >&2
        FAILED=1
    fi
done
# A route the docs name must be a pattern the server registers, and
# docs/SERVING.md must name every one. Routes read METHOD:/path; a
# `/v1/a|b|c` alternation names a, b and c, and a query string is no part
# of a route.
routes="$(grep -oE 'Handle(Func)?\("(GET|POST|DELETE) /v1/[^"]*"' internal/server/server.go | sed 's/^[^"]*"//; s/"$//; s/ /:/')"
named() {
    grep -oE '(GET|POST|DELETE) +/v1/[A-Za-z0-9_/{}|-]+' "$1" | sed 's/  */:/' |
        awk -F'|' '{ n = split($1, p, "/"); base = substr($1, 1, length($1) - length(p[n])); print $1; for (i = 2; i <= NF; i++) print base $i }' | sort -u
}
for f in README.md DESIGN.md docs/*.md; do
    for route in $(named "$f"); do
        if ! echo "$routes" | grep -qxF -- "$route"; then
            echo "$f: names route ${route%%:*} ${route#*:}, which internal/server/server.go does not register" >&2
            FAILED=1
        fi
    done
done
served="$(named docs/SERVING.md)"
for route in $routes; do
    if ! echo "$served" | grep -qxF -- "$route"; then
        echo "docs/SERVING.md does not name ${route%%:*} ${route#*:}, which internal/server/server.go registers" >&2
        FAILED=1
    fi
done
if [ "$FAILED" -ne 0 ]; then
    exit 1
fi
echo "docs lint OK (links resolve; flags, make targets, routes, options, variables and series exist; the metric table names every registered series)"
