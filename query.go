package ivm

import (
	"slices"

	"ivm/internal/datalog"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// QueryResult is one match of a query goal: the matched row plus the
// values bound to each variable of the goal.
type QueryResult struct {
	Row      Row
	Bindings map[string]Value
}

// Query matches a single goal pattern against a stored (base or derived)
// relation and returns the matching rows with their variable bindings:
//
//	results, err := v.Query(`hop(a, X)`)        // all hops from a
//	results, err := v.Query(`link(X, X)`)       // self-loops
//	results, err := v.Query(`min_cost_hop(a, b, M)`)
//
// Upper-case identifiers are variables (repeated variables must agree),
// lower-case identifiers, numbers and strings are constants. Rows carry
// the stored derivation counts.
//
// The goal is matched against the current published version: lock-free,
// never blocked by Apply. For several consistent queries, pin one
// version with Snapshot.
func (v *Views) Query(goal string) ([]QueryResult, error) { return v.Snapshot().Query(goal) }

// matchGoal enumerates rel rows matching the atom pattern.
func matchGoal(a datalog.Atom, rel relation.Reader) []QueryResult {
	// Bound columns (constants) drive an index lookup when present, which
	// matches them by key identity (==), as a join would. Lookup may build
	// an index lazily, but that build is synchronized inside the relation
	// package, so concurrent matches are safe on a shared frozen relation.
	var cols []int
	var key value.Tuple
	for i, t := range a.Args {
		if c, ok := t.(datalog.Const); ok {
			cols = append(cols, i)
			key = append(key, c.Value)
		}
	}
	var rows []Row
	if len(cols) > 0 {
		relation.LookupInto(rel, cols, key, &rows)
	} else {
		rel.Each(func(row Row) { rows = append(rows, row) })
	}

	var out []QueryResult
	for _, row := range rows {
		if len(row.Tuple) != len(a.Args) {
			continue
		}
		bind := make(map[string]Value)
		ok := true
		for i, t := range a.Args {
			if x, isVar := t.(datalog.Var); isVar {
				if prev, seen := bind[string(x)]; !seen {
					bind[string(x)] = row.Tuple[i]
				} else if ok = prev == row.Tuple[i]; !ok {
					break
				}
			}
		}
		if ok {
			out = append(out, QueryResult{Row: row, Bindings: bind})
		}
	}
	// Deterministic order for callers and tests.
	slices.SortFunc(out, func(a, b QueryResult) int { return a.Row.Tuple.Compare(b.Row.Tuple) })
	return out
}
