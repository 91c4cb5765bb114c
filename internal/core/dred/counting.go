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
// and a rule edit's seeds sum into each head's Δ, which the stratum
// commits whole and cascades as statement (2) decides.
func (e *Engine) count(o *op, s int, rules []int) error {
	st := StratumTrace{Stratum: s, Algorithm: "counting"}
	var stratumStart time.Time
	if o.timing {
		stratumStart = time.Now()
	}
	perPred := make(map[string]*relation.Relation)
	defer e.keepWork(perPred)
	for _, ri := range rules {
		if err := e.applyRule(o, ri, perPred); err != nil {
			return err
		}
	}
	for pred, seed := range o.seeds {
		if e.strat.SN[pred] == s {
			perPred[pred] = seed // an edit changes nothing below its head's stratum
		}
	}
	// Close the stratum: record full deltas and decide what cascades.
	for pred, w := range perPred {
		if w.Empty() {
			continue
		}
		stored := e.db.Ensure(pred, -1)
		var verr error
		w.Each(func(row relation.Row) {
			if verr == nil && stored.Count(row.Tuple)+row.Count < 0 {
				verr = fmt.Errorf("counting: internal error: count of %s%s would become negative (Theorem 4.1 violated)", pred, row.Tuple)
			}
		})
		if verr != nil {
			return verr
		}
		// One frozen copy, made to size, is what the commit's readers see.
		dp := w.Clone()
		dp.Freeze()
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
		st.Wall = time.Since(stratumStart)
	}
	e.stratumDone(st)
	return nil
}

// applyRule evaluates the delta rules Δ1(r)..Δn(r) of rule ri that have a
// changed subgoal, accumulating Δ(head) into perPred.
func (e *Engine) applyRule(o *op, ri int, perPred map[string]*relation.Relation) error {
	rule := e.prog.Rules[ri]
	litDelta, err := e.deltaImages(o, ri)
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(litDelta, func(d *relation.Relation) bool { return d != nil }) {
		return nil // no subgoal changed
	}

	stored := e.db.Ensure(rule.Head.Pred, -1)
	dp, ok := perPred[rule.Head.Pred]
	if !ok {
		if dp = e.work[rule.Head.Pred]; dp == nil {
			dp = relation.New(len(rule.Head.Args))
			e.work[rule.Head.Pred] = dp
		}
		// Δ(head) borrows from the stored head relation, which is written
		// only after the last stratum.
		dp.Reset()
		dp.BorrowFrom(stored, nil)
		perPred[rule.Head.Pred] = dp
	}

	for i := range litDelta {
		if litDelta[i] == nil {
			continue
		}
		if rule.Body[i].Kind == datalog.LitAggregate {
			dp.BorrowFrom(stored, litDelta[i]) // a head over ΔT is often ΔT's new row
		}
		srcs, err := e.deltaSources(o, ri, litDelta, i)
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

// keepWork drops the working table of each head in perPred whose array
// outgrew its stored relation's net bound: a bulk apply leaves nothing.
func (e *Engine) keepWork(perPred map[string]*relation.Relation) {
	for pred := range perPred {
		if w := e.work[pred]; w != nil && !e.db[pred].Keeps(w) {
			delete(e.work, pred)
		}
	}
}

// deltaImages computes the per-literal Δ images of rule ri (nil = subgoal
// unchanged), updating group tables as a side effect (deltaT memoizes
// them).
func (e *Engine) deltaImages(o *op, ri int) ([]*relation.Relation, error) {
	rule := e.prog.Rules[ri]
	litDelta := make([]*relation.Relation, len(rule.Body))
	for li, lit := range rule.Body {
		if lit.Pred() == "" {
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
// later positions the old state (Example 4.1's d1/d2 orientation).
func (e *Engine) deltaSources(o *op, ri int, litDelta []*relation.Relation, i int) ([]eval.Source, error) {
	rule := e.prog.Rules[ri]
	srcs := make([]eval.Source, len(rule.Body))
	for j, lit := range rule.Body {
		if j == i {
			srcs[j] = eval.Source{Rel: litDelta[i], JoinDelta: lit.Kind == datalog.LitNegated}
			continue
		}
		var err error
		if srcs[j], err = e.source(o, lit, eval.RuleLit{Rule: ri, Lit: j}, j < i); err != nil {
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
func setTransitions(stored relation.Reader, d *relation.Relation) *relation.Relation {
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
