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
// ground head tuple, one slice of ground subgoals per derivation, in body
// order — the derivations the counting algorithm counts but does not store
// ("we store only the number of derivations, not the derivations
// themselves", Section 1). srcs supplies the relation for each body
// literal exactly as for EvalRule.
//
// A head of variables and constants is DRed's rederivation shape: the
// head, as a literal pinned first over the one row it must match, binds
// its variables before the body joins. A head with arithmetic cannot be
// a literal: the rule is planned as it is, and the head is grounded and
// compared at the end of each derivation. Either way the walk is
// EvalPlan's, and a derivation is read back from its slots.
func Explain(rule datalog.Rule, srcs []Source, head value.Tuple) ([][]GroundSubgoal, error) {
	if len(head) != len(rule.Head.Args) {
		return nil, nil
	}
	simple := !slices.ContainsFunc(rule.Head.Args, func(a datalog.Term) bool {
		_, ok := a.(datalog.Arith)
		return ok
	})
	walked, walkedSrcs, off := rule, srcs, 0
	if simple {
		walked.Body = append([]datalog.Literal{{Kind: datalog.LitPositive, Atom: rule.Head}}, rule.Body...)
		one := relation.New(len(head))
		one.Add(head, 1)
		walkedSrcs, off = append([]Source{{Rel: one}}, srcs...), 1
	}
	plan, err := PlanRule(walked, walkedSrcs, off-1)
	if err != nil {
		return nil, err
	}
	step := make([]*PlanStep, len(walked.Body))
	for k := range plan.Steps {
		step[plan.Steps[k].Lit] = &plan.Steps[k]
	}

	var out [][]GroundSubgoal
	w := plan.takeWalk()
	w.srcs = walkedSrcs
	w.leaf = func() error {
		if !simple {
			got, err := ground(nil, plan.head, w.slots)
			if err != nil || !slices.Equal(got, head) {
				return err
			}
		}
		var d []GroundSubgoal
		for li, lit := range rule.Body {
			st := step[li+off]
			switch {
			case st.Kind == AccessFilter:
			case st.Kind == AccessNegFilter:
				t, err := ground(nil, st.args, w.slots)
				if err != nil {
					return err
				}
				d = append(d, GroundSubgoal{Pred: lit.Atom.Pred, Tuple: t, Negated: true, Count: 1})
			default:
				t := bound(st.ops, w.slots)
				d = append(d, GroundSubgoal{
					Pred:      lit.Pred(),
					Tuple:     t,
					Aggregate: lit.Kind == datalog.LitAggregate,
					Count:     srcs[li].Rel.Count(t),
				})
			}
		}
		out = append(out, d)
		return nil
	}
	if err := w.walk(0, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// SourcesAt resolves every literal of rule against the relations rel
// returns (DB.Reader, or an engine's stored state), building group tables
// on demand from gts (creating and caching any that are missing). It is
// the common "current state" resolver engines use for explanation queries.
func SourcesAt(rule datalog.Rule, ri int, rel func(pred string) relation.Reader, sem Semantics, gts map[RuleLit]*GroupTable) ([]Source, error) {
	srcs := make([]Source, len(rule.Body))
	for li, lit := range rule.Body {
		switch lit.Kind {
		case datalog.LitPositive, datalog.LitNegated:
			r := rel(lit.Atom.Pred)
			if sem == Set {
				r = relation.SetImage(r)
			}
			srcs[li] = Source{Rel: r}
		case datalog.LitAggregate:
			key := RuleLit{Rule: ri, Lit: li}
			gt, ok := gts[key]
			if !ok {
				inner := rel(lit.Agg.Inner.Pred)
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
