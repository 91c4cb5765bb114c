package eval

import (
	"slices"

	"ivm/internal/datalog"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// GroundSubgoal is one instantiated body literal of a derivation: the
// subgoal's predicate (or GROUPBY image), the matched tuple, and how the
// literal participated.
type GroundSubgoal struct {
	Pred      string
	Tuple     value.Tuple
	Negated   bool // satisfied because the tuple is absent
	Aggregate bool // a GROUPBY image tuple (groupVals..., result)
	Count     int64
}

// Explain enumerates the instantiations of rule's body that derive the
// ground head tuple, one slice of ground subgoals per derivation — the
// derivations the counting algorithm counts but does not store ("we store
// only the number of derivations, not the derivations themselves",
// Section 1). srcs supplies the relation for each body literal exactly as
// for EvalRule, and the walk takes PlanRule's literal order.
func Explain(rule datalog.Rule, srcs []Source, head value.Tuple) ([][]GroundSubgoal, error) {
	if len(head) != len(rule.Head.Args) {
		return nil, nil
	}
	b := newBinding()
	simple := true
	for _, a := range rule.Head.Args {
		if _, ok := a.(datalog.Arith); ok {
			simple = false
			break
		}
	}
	var undo []string
	if simple {
		ok, bound := matchPattern(rule.Head.Args, head, b, nil)
		if !ok {
			return nil, nil
		}
		undo = bound
	}
	defer undoBind(b, undo)

	plan, err := PlanRule(rule, srcs, -1)
	if err != nil {
		return nil, err
	}

	var out [][]GroundSubgoal
	trail := make([]GroundSubgoal, 0, len(rule.Body))
	var walk func(step int) error
	walk = func(step int) error {
		if step == len(plan.Steps) {
			if !simple {
				// Expression heads: compute and compare.
				got, err := groundAtom(nil, rule.Head.Args, b)
				if err != nil {
					return err
				}
				if !slices.Equal(got, head) {
					return nil
				}
			}
			out = append(out, append([]GroundSubgoal(nil), trail...))
			return nil
		}
		idx := plan.Steps[step].Lit
		lit := rule.Body[idx]
		src := srcs[idx]

		switch {
		case lit.Kind == datalog.LitCondition:
			l, err := evalTerm(lit.Cond.Left, b)
			if err != nil {
				return err
			}
			r, err := evalTerm(lit.Cond.Right, b)
			if err != nil {
				return err
			}
			if lit.Cond.Op.Eval(l, r) {
				return walk(step + 1)
			}
			return nil

		case lit.Kind == datalog.LitNegated && !src.JoinDelta:
			t, err := groundAtom(nil, lit.Atom.Args, b)
			if err != nil {
				return err
			}
			if src.Rel.Has(t) {
				return nil
			}
			trail = append(trail, GroundSubgoal{Pred: lit.Atom.Pred, Tuple: t, Negated: true, Count: 1})
			err = walk(step + 1)
			trail = trail[:len(trail)-1]
			return err

		default:
			args := joinArgs(lit)
			return joinLiteral(args, src.Rel, b, func(count int64) error {
				t, err := groundAtom(nil, args, b)
				if err != nil {
					return err
				}
				trail = append(trail, GroundSubgoal{
					Pred:      lit.Pred(),
					Tuple:     t,
					Aggregate: lit.Kind == datalog.LitAggregate,
					Count:     count,
				})
				err = walk(step + 1)
				trail = trail[:len(trail)-1]
				return err
			})
		}
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return out, nil
}

// SourcesAt resolves every literal of rule against db's current state,
// building group tables on demand from gts (creating and caching any that
// are missing). It is the common "current state" resolver engines use for
// explanation queries.
func SourcesAt(rule datalog.Rule, ri int, db *DB, sem Semantics, gts map[RuleLit]*GroupTable) ([]Source, error) {
	srcs := make([]Source, len(rule.Body))
	for li, lit := range rule.Body {
		switch lit.Kind {
		case datalog.LitPositive, datalog.LitNegated:
			var r relation.Reader = db.rel(lit.Atom.Pred)
			if sem == Set {
				r = relation.SetImage(r)
			}
			srcs[li] = Source{Rel: r}
		case datalog.LitAggregate:
			key := RuleLit{Rule: ri, Lit: li}
			gt, ok := gts[key]
			if !ok {
				var inner relation.Reader = db.rel(lit.Agg.Inner.Pred)
				if sem == Set {
					inner = relation.SetImage(inner)
				}
				var err error
				gt, err = BuildGroupTable(lit.Agg, inner)
				if err != nil {
					return nil, err
				}
				if gts != nil {
					gts[key] = gt
				}
			}
			srcs[li] = Source{Rel: gt.Rel()}
		case datalog.LitCondition:
		}
	}
	return srcs, nil
}
