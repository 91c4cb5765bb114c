package dred

import (
	"fmt"
	"slices"
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/relation"
)

// count maintains counting stratum s: the delta rules of Definition 4.1
// (a counted fixpoint of them when the stratum is recursive) and a rule
// edit's seeds sum into each head's Δ, which the stratum commits whole and
// cascades as statement (2) decides.
func (e *Engine) count(o *op, s int, rules []int) error {
	var stratumStart time.Time
	if o.timing {
		stratumStart = time.Now()
	}
	perPred := make(map[string]*relation.Relation)
	if e.kinds[s] == recounted {
		if err := e.recount(o, s, rules, perPred); err != nil {
			return err
		}
	} else {
		for _, ri := range rules {
			if err := e.applyRule(o, ri, nil, perPred); err != nil {
				return err
			}
		}
	}
	for pred, seed := range o.seeds {
		if e.strat.SN[pred] == s {
			perPred[pred] = seed // an edit changes nothing below its head's stratum
		}
	}
	// Close the stratum: record full deltas and decide what cascades.
	for pred, dp := range perPred {
		if dp.Empty() {
			continue
		}
		stored := e.db.Ensure(pred, -1)
		var verr error
		dp.Each(func(row relation.Row) {
			if verr == nil && stored.Count(row.Tuple)+row.Count < 0 {
				verr = fmt.Errorf("counting: internal error: count of %s%s would become negative (Theorem 4.1 violated)", pred, row.Tuple)
			}
		})
		if verr != nil {
			return verr
		}
		dp.Freeze() // linked into the published version as it is
		o.commit[pred] = dp
		e.last.DeltaTuples += dp.Len()
		if e.sem != eval.Set {
			o.cascade[pred] = dp
		} else if cd := setTransitions(stored, dp); cd.Empty() {
			e.last.CascadeStopped++
		} else {
			// Statement (2): Δ(P) = set(Pν) − set(P) is both what cascades
			// and the externally visible change of a set view.
			o.cascade[pred] = cd
		}
	}
	if o.timing {
		d := time.Since(stratumStart)
		e.mCount.stratumSecs.Observe(d)
		if e.tracer != nil {
			e.tracer.StratumDone(s, d)
		}
	}
	return nil
}

// applyRule evaluates the delta rules Δ1(r)..Δn(r) of rule ri that have a
// changed subgoal, accumulating Δ(head) into perPred; a literal over a
// predicate of inStratum is no changed subgoal and reads its old state (a
// recursive stratum's round 0).
func (e *Engine) applyRule(o *op, ri int, inStratum map[string]bool, perPred map[string]*relation.Relation) error {
	rule := e.prog.Rules[ri]
	litDelta, err := e.deltaImages(o, ri, inStratum)
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(litDelta, func(d *relation.Relation) bool { return d != nil }) {
		return nil // no subgoal changed
	}

	dp, ok := perPred[rule.Head.Pred]
	if !ok {
		dp = e.headDelta(rule, nil)
		perPred[rule.Head.Pred] = dp
	}
	stored := e.db.Ensure(rule.Head.Pred, -1)

	for i := range litDelta {
		if litDelta[i] == nil {
			continue
		}
		if rule.Body[i].Kind == datalog.LitAggregate {
			dp.BorrowFrom(stored, litDelta[i]) // a head over ΔT is often ΔT's new row
		}
		srcs, err := e.deltaSources(o, ri, litDelta, i, inStratum)
		if err != nil {
			return err
		}
		plan, err := e.planner.PlanFor(eval.PlanKey{Rule: ri, Kind: eval.PlanDeltaNew, Delta: i}, rule, srcs)
		if err != nil {
			return err
		}
		before := dp.Len()
		err = eval.EvalPlan(rule, srcs, plan, dp, e.instr)
		dp.BorrowFrom(stored, nil) // dp is published with the commit, ΔT need not be
		if err != nil {
			return err
		}
		e.last.DeltaRulesEvaluated++
		if e.tracer != nil {
			e.tracer.RuleEvaluated(rule.Head.Pred, dp.Len()-before)
		}
	}
	return nil
}

// headDelta returns an empty Δ(head) that borrows from pending (or nil) and
// the stored head relation, which is written after the last stratum.
func (e *Engine) headDelta(rule datalog.Rule, pending *relation.Relation) *relation.Relation {
	out := relation.New(len(rule.Head.Args))
	out.BorrowFrom(e.db.Ensure(rule.Head.Pred, -1), pending)
	return out
}

// deltaImages computes the per-literal Δ images of rule ri (nil = subgoal
// unchanged), updating group tables as a side effect (deltaT memoizes
// them). A literal over a predicate of inStratum keeps none: a recursive
// stratum's own rounds drive it.
func (e *Engine) deltaImages(o *op, ri int, inStratum map[string]bool) ([]*relation.Relation, error) {
	rule := e.prog.Rules[ri]
	litDelta := make([]*relation.Relation, len(rule.Body))
	for li, lit := range rule.Body {
		if pred := lit.Pred(); pred == "" || inStratum[pred] {
			continue
		}
		switch lit.Kind {
		case datalog.LitPositive:
			if cd := o.cascade[lit.Atom.Pred]; cd != nil {
				litDelta[li] = cd
			}
		case datalog.LitNegated:
			if cd := o.cascade[lit.Atom.Pred]; cd != nil {
				if dn := deltaNegation(e.old(lit.Atom.Pred), cd); !dn.Empty() {
					litDelta[li] = dn
				}
			}
		case datalog.LitAggregate:
			if o.cascade[lit.Agg.Inner.Pred] == nil {
				continue
			}
			dt, err := e.deltaT(o, eval.RuleLit{Rule: ri, Lit: li}, lit.Agg)
			if err != nil {
				return nil, err
			}
			if !dt.Empty() {
				litDelta[li] = dt
			}
		}
	}
	return litDelta, nil
}

// deltaSources builds the source list of delta rule Δi(r) per Definition
// 4.1: position i reads the Δ image, earlier positions the new state,
// later positions the old state (Example 4.1's d1/d2 orientation) — except
// a literal over a predicate of inStratum, which reads its old state (a
// recursive stratum's round 0).
func (e *Engine) deltaSources(o *op, ri int, litDelta []*relation.Relation, i int, inStratum map[string]bool) ([]eval.Source, error) {
	rule := e.prog.Rules[ri]
	srcs := make([]eval.Source, len(rule.Body))
	for j, lit := range rule.Body {
		var err error
		switch pred := lit.Pred(); {
		case j == i:
			srcs[j] = eval.Source{Rel: litDelta[i], JoinDelta: lit.Kind == datalog.LitNegated}
		case pred != "" && inStratum[pred]:
			srcs[j] = eval.Source{Rel: e.old(pred)}
		default:
			srcs[j], err = e.source(o, lit, eval.RuleLit{Rule: ri, Lit: j}, j < i)
		}
		if err != nil {
			return nil, err
		}
	}
	return srcs, nil
}

// deltaNegation computes Δ(¬Q) per Definition 6.1: a tuple of ΔQ that
// leaves the (positive) set image of Q enters ¬Q with count 1; one that
// enters it leaves ¬Q with count −1.
func deltaNegation(qOld relation.Reader, dq *relation.Relation) *relation.Relation {
	return pick(dq, func(row relation.Row) int64 {
		oldHas := qOld.Has(row.Tuple)
		newHas := qOld.Count(row.Tuple)+row.Count > 0
		switch {
		case oldHas && !newHas:
			return 1
		case !oldHas && newHas:
			return -1
		}
		return 0
	})
}

// setTransitions returns set(stored ⊎ d) − set(stored) as a ±1 delta:
// the tuples whose presence flips when d is applied to stored.
func setTransitions(stored *relation.Relation, d *relation.Relation) *relation.Relation {
	return pick(d, func(row relation.Row) int64 {
		oldC := stored.Count(row.Tuple)
		newC := oldC + row.Count
		switch {
		case oldC <= 0 && newC > 0:
			return 1
		case oldC > 0 && newC <= 0:
			return -1
		}
		return 0
	})
}
