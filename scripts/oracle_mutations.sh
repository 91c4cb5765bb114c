#!/usr/bin/env bash
# Puts back, one at a time, the one-line bugs the oracle must catch
# (EXPERIMENTS.md E34, E40, E41, E43, E44, E46, E47, E49, E50, E51, E52, E53, E54, E57, E58, E59, E60, E61, E63, E64) and requires `go test -run '^TestOracle$' .`
# to FAIL on each. Every mutation runs in its own copy of the tree, made
# in a temporary directory, so the checkout is never touched. A pattern
# must occur exactly once in its file: a stale one fails the script
# loudly instead of testing nothing. Copies tracked and untracked,
# not-ignored files (`git add` is not needed first).
#
#   bash scripts/oracle_mutations.sh      (make oracle-mutations)
set -euo pipefail
cd "$(dirname "$0")/.."

# name | file | pattern | replacement
mutations=(
	"GroupTable.Rollback keeps the aborted state|internal/eval/group.go|fold(f.e, f.v, -f.count) != nil|f.e == nil"
	"GroupTable.Rollback keeps a Scalar's aborted state|internal/eval/group.go|ue.e.state = ue.state|_ = ue.state"
	"publishLocked skips a request whose log stage failed|ivm.go|		v.installLocked(r.ver)|		if r.err == nil { v.installLocked(r.ver) }"
	"a request is maintained on a copy of the batch's starting relation map, not of its predecessor's|ivm.go|		rels, id = next, id+1|		id++"
	"the engine's edit does not undo a refused edit|internal/core/dred/dred.go|		undo()|		_ = undo"
	"colCheck matches floats by numeric ==|internal/eval/slots.go|			if t[i] != slots[op.slot] {|			if t[i] != slots[op.slot] && !(t[i].IsNumeric() && slots[op.slot].IsNumeric() && t[i].Float() == slots[op.slot].Float()) {"
	"extremum.Add counts a numeric tie as a copy|internal/agg/agg.go|return b.Compare(a)|if a.IsNumeric() && b.IsNumeric() && a.Float() == b.Float() { return 0 }; return b.Compare(a)"
	"MIN/MAX count a CompareNumeric tie as a copy|internal/agg/agg.go|return b.Compare(a)|return b.CompareNumeric(a)"
	"a value leaves its group with a copy left, so the next extremum comes one copy early|internal/agg/agg.go|case e.at(m).n == mult:|case e.at(m).n <= mult+1:"
	"a SUM stays a Float once it held one (PR 31)|internal/agg/agg.go|	if s.floats += mult; s.floats == 0 {|	if s.floats += max(mult, 0); s.floats == 0 {"
	"SUM's Result is one too many|internal/agg/agg.go|	return value.NewInt(s.i), true|	return value.NewInt(s.i + 1), true"
	"CmpLt evaluates as <=|internal/datalog/ast.go|		return c < 0|		return c <= 0"
	"materialize skips the semi-naive rounds after the seed pass|internal/core/dred/propagate.go|m.rounds(o, rules, inStratum, step)|error(nil)"
	"a DRed image takes Δ's negative part in both steps|internal/core/dred/propagate.go|return signPart(d, neg), nil|return signPart(d, true), nil"
	"counting commits its working Δ(head) uncopied and unfrozen|internal/core/dred/counting.go|		dp.Freeze()|		dp = w"
	"the trace is stamped with the predecessor's version|snapshot.go|&ApplyTrace{Version: id, Strategy: v.strategy|&ApplyTrace{Version: id - 1, Strategy: v.strategy"
	"the history's index keeps a key after its commit leaves|history.go|			delete(v.keys, k)|			_ = k"
	"the history holds a hollow ChangeSet for an unshed commit|history.go|Trace: r.ver.trace, Changes: r.cs}|Trace: r.ver.trace, Changes: &ChangeSet{version: r.cs.version}}"
	"counting cascades Δ(head) itself where a row flips by ±1 but moves by ±2|internal/core/dred/counting.go|olds[i] == row.Count|olds[i]*row.Count > 0"
	"the follower shares Δ where a row flips but moves by ±2|replicate.go|f == count|f != 0"
	"compact leaves a kept run out of the rebuilt overlay|internal/relation/version.go|deltas: v.deltas[:k:k]|deltas: v.deltas[:0:0]"
	"the follower stamps its own clock as the primary's publish|internal/replica/replica.go|published = time.Unix(0, rec.UnixNano)|published = time.Now()"
	"settle unnets a row whose count differs from its base row's|internal/relation/stored.go|c.vals == b.vals && c.count == b.count {|c.vals == b.vals {"
	"a built row's key is copied one byte short|internal/relation/relation.go|copy(unsafe.Slice(kp, len(kb)), kb)|copy(unsafe.Slice(kp, len(kb)), kb[:max(len(kb), 1)-1])"
	"a cell's key is read one value early in its block|internal/relation/relation.go|unsafe.String(behind(c.vals, int(arity)), c.kl)|unsafe.String(behind(c.vals, int(arity)-1), c.kl)"
	"a round's frontier refers to the previous position's row|internal/relation/reader.go|c := &r.rows.cells[p]|c := &r.rows.cells[max(p, 1)-1]"
	"recovery replays stale-epoch WAL records|internal/storage/store.go|case epoch == s.epoch:|case epoch <= s.epoch:"
	"recovery leaves the torn tail in the WAL|internal/storage/store.go|if err := wal.Truncate(end); err != nil {|if err := wal.Truncate(size); err != nil {"
	"a DRed stratum's end leaves the places its step 1 marked marked|internal/core/dred/propagate.go|	defer e.unmark(inStratum)|	_ = e.unmark"
	"a DRed round's window starts one place late, dropping the first place the round before admitted|internal/core/dred/propagate.go|pl.stored.Places(pl.ps[pl.end:])|pl.stored.Places(pl.ps[min(pl.end+1, len(pl.ps)):])"
	"the scheduler hands each request of a batch to the maintainer alone, so no two calls share a batch|internal/sched/sched.go|		c.process(batch)|		for _, r := range batch { c.process([]R{r}) }"
)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
failed=0
for m in "${mutations[@]}"; do
	IFS='|' read -r name file pattern replacement <<<"$m"
	dir="$work/tree"
	rm -rf "$dir"
	mkdir -p "$dir"
	git ls-files -z --cached --others --exclude-standard | while IFS= read -r -d '' f; do
		[ -e "$f" ] && printf '%s\0' "$f"
	done | xargs -0 cp --parents -t "$dir"
	n="$(awk -v p="$pattern" '{ s = $0; while ((i = index(s, p)) > 0) { n++; s = substr(s, i + length(p)) } } END { print n + 0 }' "$dir/$file")"
	if [ "$n" != 1 ]; then
		echo "STALE  $name: the pattern occurs $n times in $file" >&2
		failed=1
		continue
	fi
	awk -v p="$pattern" -v r="$replacement" '{ if ((i = index($0, p)) > 0) $0 = substr($0, 1, i - 1) r substr($0, i + length(p)); print }' \
		"$dir/$file" >"$dir/$file.mutated"
	mv "$dir/$file.mutated" "$dir/$file"
	if out="$(cd "$dir" && go test -count=1 -run '^TestOracle$' . 2>&1)"; then
		echo "MISSED $name: TestOracle passes" >&2
		failed=1
		continue
	fi
	first="$(printf '%s\n' "$out" | grep -m1 -E 'seed [0-9]+ leg|no seed of the' | sed 's/^[[:space:]]*//' | cut -c1-240 || true)"
	echo "caught $name: ${first:-$(printf '%s\n' "$out" | grep -m1 FAIL)}"
done
exit "$failed"
