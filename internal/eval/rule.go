package eval

import (
	"ivm/internal/datalog"
	"ivm/internal/relation"
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
