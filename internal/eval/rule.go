package eval

import (
	"fmt"

	"ivm/internal/datalog"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// Source supplies the concrete relation a body literal is evaluated
// against, decoupling rule evaluation from *which* version of a relation
// (old, new, or Δ) a maintenance algorithm wants at each position — the
// essence of the paper's delta rules.
type Source struct {
	// Rel is the relation for this literal. For positive literals it is
	// the predicate's relation; for aggregate literals it is the GROUPBY
	// image over (groupVars..., result); for negated literals it is either
	// the predicate's relation (filter mode) or, with JoinDelta set, the
	// precomputed Δ(¬Q) image of Definition 6.1 (join mode). Conditions
	// take no relation.
	Rel relation.Reader
	// JoinDelta marks a negated literal sitting in the Δ-position of a
	// delta rule: its Rel is joined positively (counts ±1) instead of
	// being used as an absence filter.
	JoinDelta bool
}

// EvalRule evaluates one rule with the given per-literal sources and adds
// every derived head tuple (with its derivation count — the product of
// the joined tuples' counts, summed over derivations) into out.
//
// firstLit, when >= 0, forces that body literal to be scanned first: delta
// rules put the Δ-subgoal first because it is usually the most restrictive
// (paper Section 6.1 notes Δ-subgoals lead the join order). The remaining
// literals are ordered greedily, with filters (conditions, negations)
// evaluated as soon as their variables are bound.
func EvalRule(rule datalog.Rule, srcs []Source, firstLit int, out *relation.Relation) error {
	return EvalRuleInstr(rule, srcs, firstLit, out, nil)
}

// joinCounters accumulates access-path counts locally during one rule
// evaluation; they are flushed to Instruments in a single atomic add per
// counter afterwards. Probes are keyed accesses (point lookups, index
// lookups, negation Has checks); scans are full-relation enumerations —
// kept separate so the planner's cost feedback can tell them apart.
// heads counts the derivations by where the output found their row.
type joinCounters struct {
	probes, scans int64
	heads         [relation.Built + 1]int64
}

// EvalRuleInstr is EvalRule with instrumentation: join probes and scans
// are counted locally during the walk and flushed to in (if non-nil) in
// a single atomic add per counter afterwards, so the instrumented hot
// path differs from the bare one only by a local integer increment per
// access.
//
// The greedy order is turned into the same frozen steps a Plan holds —
// with every bound column probed, never a reused subset index — and
// walked by the same walker, so the two paths differ only in the order
// they choose and in the planner's index reuse.
func EvalRuleInstr(rule datalog.Rule, srcs []Source, firstLit int, out *relation.Relation, in *Instruments) error {
	if len(srcs) != len(rule.Body) {
		return fmt.Errorf("eval: rule has %d literals but %d sources given", len(rule.Body), len(srcs))
	}
	order, err := orderLiterals(rule, srcs, firstLit)
	if err != nil {
		return err
	}
	bound := make(map[string]bool)
	steps := make([]PlanStep, len(order))
	for k, i := range order {
		steps[k] = accessPath(rule, srcs, i, bound, false)
	}
	return walkSteps(rule, srcs, steps, out, in)
}

// joinArgs returns the term pattern a join-mode literal exposes: the
// atom's arguments, or for aggregates the grouping variables followed by
// the result variable (the schema of the GROUPBY relation).
func joinArgs(lit datalog.Literal) []datalog.Term {
	switch lit.Kind {
	case datalog.LitPositive, datalog.LitNegated:
		return lit.Atom.Args
	case datalog.LitAggregate:
		args := make([]datalog.Term, 0, len(lit.Agg.GroupBy)+1)
		for _, v := range lit.Agg.GroupBy {
			args = append(args, v)
		}
		return append(args, lit.Agg.Result)
	}
	return nil
}

// joinLiteral enumerates the rows of rel matching args under the current
// binding, using a hash index on the bound columns when one helps, and
// invokes each with the row's count, extending/retracting the binding
// around the call. It classifies the columns on every call, which lets
// Explain start from a binding the head already filled; rule evaluation
// goes through walkSteps instead.
func joinLiteral(args []datalog.Term, rel relation.Reader, b *binding, each func(count int64) error) error {
	// Classify columns under the current binding.
	var boundCols []int
	var keyVals value.Tuple
	allBound := true
	for i, a := range args {
		switch x := a.(type) {
		case datalog.Const:
			boundCols = append(boundCols, i)
			keyVals = append(keyVals, x.Value)
		case datalog.Var:
			if v, ok := b.lookup(string(x)); ok {
				boundCols = append(boundCols, i)
				keyVals = append(keyVals, v)
			} else {
				allBound = false
			}
		default:
			return fmt.Errorf("eval: expression %s in join pattern", a)
		}
	}

	emit := func(row relation.Row) error {
		ok, newly := matchPattern(args, row.Tuple, b, nil)
		if !ok {
			return nil
		}
		err := each(row.Count)
		undoBind(b, newly)
		return err
	}

	switch {
	case allBound && len(args) > 0:
		// Point lookup: every column is bound, so the key values are the tuple.
		if c := rel.Count(keyVals); c != 0 {
			return each(c)
		}
		return nil
	case len(boundCols) > 0:
		for _, row := range rel.Lookup(boundCols, keyVals) {
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	default:
		var err error
		rel.Each(func(row relation.Row) {
			if err != nil {
				return
			}
			err = emit(row)
		})
		return err
	}
}

// orderLiterals produces a safe, greedy evaluation order: the designated
// first literal (if join-capable) leads; filters run as soon as all their
// variables are bound; remaining joins are chosen by most-bound-columns
// first (original order breaking ties).
func orderLiterals(rule datalog.Rule, srcs []Source, firstLit int) ([]int, error) {
	n := len(rule.Body)
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	bound := make(map[string]bool)
	order := make([]int, 0, n)

	isFilter := func(i int) bool {
		l := rule.Body[i]
		return l.Kind == datalog.LitCondition || (l.Kind == datalog.LitNegated && !srcs[i].JoinDelta)
	}
	ready := func(i int) bool {
		for _, v := range rule.Body[i].UsesVars(nil) {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	take := func(i int) {
		remaining[i] = false
		order = append(order, i)
		if !isFilter(i) {
			for _, t := range joinArgs(rule.Body[i]) {
				for _, v := range t.Vars(nil) {
					bound[v] = true
				}
			}
		}
	}
	flushFilters := func() {
		for i := 0; i < n; i++ {
			if remaining[i] && isFilter(i) && ready(i) {
				take(i)
			}
		}
	}

	if firstLit >= 0 && firstLit < n && !isFilter(firstLit) {
		take(firstLit)
	}
	flushFilters()

	for {
		done := true
		for i := 0; i < n; i++ {
			if remaining[i] {
				done = false
				break
			}
		}
		if done {
			return order, nil
		}
		// Pick the join literal with the most variables already bound;
		// break ties toward the smaller relation (cheaper fan-out).
		best, bestScore, bestLen := -1, -1, 0
		for i := 0; i < n; i++ {
			if !remaining[i] || isFilter(i) {
				continue
			}
			score := 0
			for _, t := range joinArgs(rule.Body[i]) {
				for _, v := range t.Vars(nil) {
					if bound[v] {
						score++
					}
				}
				if _, isConst := t.(datalog.Const); isConst {
					score++
				}
			}
			size := 0
			if srcs[i].Rel != nil {
				size = srcs[i].Rel.Len()
			}
			if score > bestScore || (score == bestScore && size < bestLen) {
				best, bestScore, bestLen = i, score, size
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("eval: rule %q has filters with unbound variables and no remaining joins", rule.String())
		}
		take(best)
		flushFilters()
	}
}
