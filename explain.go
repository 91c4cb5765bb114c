package ivm

import (
	"strings"
)

// Subgoal is one instantiated body literal of a derivation.
type Subgoal struct {
	// Pred is the subgoal's predicate (for aggregates, the grouped
	// predicate's GROUPBY image).
	Pred string
	// Tuple is the matched tuple (for negated subgoals, the tuple whose
	// absence satisfied the literal; for aggregates, groupVals + result).
	Tuple Tuple
	// Negated marks absence-satisfied subgoals.
	Negated bool
	// Aggregate marks GROUPBY-image subgoals.
	Aggregate bool
	// Count is the matched tuple's stored derivation count (1 for
	// negations).
	Count int64
}

// Derivation is one way a view tuple is derived: a rule and the ground
// body subgoals instantiating it.
type Derivation struct {
	// Rule renders the applied rule.
	Rule string
	// RuleIndex is the rule's position in Program().Rules.
	RuleIndex int
	// Subgoals are the instantiated body literals, in body order
	// (conditions, which match no tuple, are left out).
	Subgoals []Subgoal
}

// Explain enumerates the derivations of a ground view tuple — the
// alternatives the counting algorithm counts without storing ("we store
// only the number of derivations, not the derivations themselves",
// paper Section 1):
//
//	ds, err := v.Explain(`hop(a, c)`)
//	// ds[0].Subgoals → link(a,b), link(b,c)
//	// ds[1].Subgoals → link(a,d), link(d,c)
//
// The goal must be ground (no variables). One level of derivation is
// returned; explain a subgoal tuple to drill deeper. For recursive views
// under DRed, derivations reflect the current materialized state.
//
// The derivations are enumerated against the current published version
// (group tables are rebuilt from the version's relations, so no engine
// state is touched and no lock is taken — Explain never blocks Apply).
func (v *Views) Explain(goal string) ([]Derivation, error) {
	return v.Snapshot().Explain(goal)
}

// ExplainPlan renders the join plan the cost-based planner chooses for
// every rule deriving pred, against the current published version's
// statistics (see Snapshot.ExplainPlan).
func (v *Views) ExplainPlan(pred string) ([]RulePlan, error) {
	return v.Snapshot().ExplainPlan(pred)
}

// derivationKey canonically encodes a derivation's ground subgoals for
// ordering.
func derivationKey(d Derivation) string {
	var sb strings.Builder
	for _, g := range d.Subgoals {
		sb.WriteString(g.Pred)
		sb.WriteByte('(')
		sb.WriteString(g.Tuple.Key())
		sb.WriteString(");")
	}
	return sb.String()
}
