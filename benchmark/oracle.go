package main

import (
	"fmt"
	"sort"

	"ivm"
)

// state is every derived relation of a Views, rows with their counts.
type state map[string][]ivm.Row

func derivedPreds(v *ivm.Views) []string {
	var preds []string
	for p := range v.Program().DerivedPreds() {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	return preds
}

func stateOf(v *ivm.Views) state {
	st := make(state)
	for _, p := range derivedPreds(v) {
		st[p] = v.Rows(p)
	}
	return st
}

// diff reports the first difference between two states, rows and counts.
func (a state) diff(b state) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d derived predicates against %d", len(a), len(b))
	}
	for p, ra := range a {
		rb := b[p]
		if len(ra) != len(rb) {
			return fmt.Errorf("%s has %d rows against %d", p, len(ra), len(rb))
		}
		for i := range ra {
			if !ra[i].Tuple.Equal(rb[i].Tuple) || ra[i].Count != rb[i].Count {
				return fmt.Errorf("%s row %d is %v*%d against %v*%d", p, i, ra[i].Tuple, ra[i].Count, rb[i].Tuple, rb[i].Count)
			}
		}
	}
	return nil
}

// checkOracle recomputes the program from scratch over the base facts
// the generator's model holds and compares every derived relation, rows
// and counts, with what incremental maintenance left in v.
func checkOracle(program string, links []edge, v *ivm.Views) error {
	want, err := baseDB(links).Materialize(program, ivm.WithStrategy(ivm.Recompute))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if got, n := len(v.Rows("link")), len(links); got != n {
		return fmt.Errorf("oracle: views store %d links, the generator's model %d", got, n)
	}
	if err := stateOf(v).diff(stateOf(want)); err != nil {
		return fmt.Errorf("oracle: maintained against recomputed: %w", err)
	}
	return nil
}
