package datalog

import (
	"fmt"
)

// ValidationError describes a structural problem with a rule.
type ValidationError struct {
	Rule   Rule
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("datalog: invalid rule %q: %s", e.Rule.String(), e.Reason)
}

// Validate checks the whole program for the structural properties the
// evaluation and maintenance algorithms rely on:
//
//   - range restriction / safety: every head variable is bound by a
//     positive subgoal, a grouping variable, or an aggregate result;
//   - safe negation: every variable of a negated subgoal occurs in some
//     positive subgoal of the same rule (paper Section 6.1);
//   - safe conditions: every variable of a comparison is bound;
//   - well-formed aggregation: grouping variables occur in the grouped
//     subgoal, the result variable is fresh, and the aggregated expression
//     only uses the grouped subgoal's variables;
//   - arity consistency: every predicate is used with a single arity;
//   - body atoms use only variables and constants (expressions belong in
//     heads and conditions).
func Validate(p *Program) error {
	arities := make(map[string]int)
	checkArity := func(r Rule, a Atom) error {
		if prev, ok := arities[a.Pred]; ok && prev != len(a.Args) {
			return &ValidationError{r, fmt.Sprintf("predicate %s used with arity %d and %d", a.Pred, prev, len(a.Args))}
		}
		arities[a.Pred] = len(a.Args)
		return nil
	}

	for _, r := range p.Rules {
		if err := validateRule(r); err != nil {
			return err
		}
		if err := checkArity(r, r.Head); err != nil {
			return err
		}
		for _, l := range r.Body {
			switch l.Kind {
			case LitPositive, LitNegated:
				if err := checkArity(r, l.Atom); err != nil {
					return err
				}
			case LitAggregate:
				if err := checkArity(r, l.Agg.Inner); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func validateRule(r Rule) error {
	bound := make(map[string]bool)
	for _, l := range r.Body {
		for _, v := range l.BindsVars(nil) {
			bound[v] = true
		}
	}

	// Body atoms: variables/constants only.
	for _, l := range r.Body {
		if l.Kind == LitPositive || l.Kind == LitNegated {
			for _, t := range l.Atom.Args {
				if _, ok := t.(Arith); ok {
					return &ValidationError{r, fmt.Sprintf("arithmetic term %s in body atom %s (only heads and conditions may contain expressions)", t, l.Atom)}
				}
			}
		}
	}

	// Head safety.
	for _, v := range r.Head.Vars(nil) {
		if !bound[v] {
			return &ValidationError{r, fmt.Sprintf("head variable %s is not bound by any positive subgoal", v)}
		}
	}

	// Negation safety.
	for _, l := range r.Body {
		if l.Kind != LitNegated {
			continue
		}
		for _, v := range l.Atom.Vars(nil) {
			if !bound[v] {
				return &ValidationError{r, fmt.Sprintf("variable %s of negated subgoal %s is not bound by a positive subgoal", v, l.Atom)}
			}
		}
	}

	// Condition safety.
	for _, l := range r.Body {
		if l.Kind != LitCondition {
			continue
		}
		for _, v := range l.UsesVars(nil) {
			if !bound[v] {
				return &ValidationError{r, fmt.Sprintf("variable %s of condition %s is not bound", v, l.Cond)}
			}
		}
	}

	// Aggregation shape.
	for _, l := range r.Body {
		if l.Kind != LitAggregate {
			continue
		}
		g := l.Agg
		innerVars := make(map[string]bool)
		for _, v := range g.Inner.Vars(nil) {
			innerVars[v] = true
		}
		for _, v := range g.GroupBy {
			if !innerVars[string(v)] {
				return &ValidationError{r, fmt.Sprintf("grouping variable %s does not occur in grouped subgoal %s", v, g.Inner)}
			}
		}
		if innerVars[string(g.Result)] {
			return &ValidationError{r, fmt.Sprintf("aggregate result variable %s must not occur in the grouped subgoal", g.Result)}
		}
		for _, v := range g.Arg.Vars(nil) {
			if !innerVars[v] {
				return &ValidationError{r, fmt.Sprintf("aggregated expression uses %s which does not occur in %s", v, g.Inner)}
			}
		}
		switch g.Func {
		case AggMin, AggMax, AggSum, AggCount, AggAvg, AggVariance:
		default:
			return &ValidationError{r, fmt.Sprintf("unknown aggregate function %q", g.Func)}
		}
		// Aggregates over the head predicate of the same rule would be
		// unstratifiable self-reference; the strata package catches the
		// general case, but catch the direct one early.
		if g.Inner.Pred == r.Head.Pred {
			return &ValidationError{r, fmt.Sprintf("aggregate over %s in a rule defining %s is not stratified", g.Inner.Pred, r.Head.Pred)}
		}
	}

	// A rule must have at least one relational subgoal (otherwise nothing
	// drives the bindings).
	hasRelational := false
	for _, l := range r.Body {
		if l.IsRelational() {
			hasRelational = true
			break
		}
	}
	if !hasRelational && len(r.Head.Vars(nil)) > 0 {
		return &ValidationError{r, "rule with head variables has no relational subgoal"}
	}
	return nil
}
