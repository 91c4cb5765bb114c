package dred

import (
	"fmt"
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
	// Close the stratum: one probe a Δ row reads its old count, which
	// checks Theorem 4.1, and decides what cascades.
	for pred, w := range perPred {
		if w.Empty() {
			continue
		}
		olds, own := e.counts(e.db.Ensure(pred, -1), w), true
		for i, old := range olds {
			row := w.At(i)
			if old+row.Count < 0 {
				return fmt.Errorf("counting: internal error: count of %s%s would become negative (Theorem 4.1 violated)", pred, row.Tuple)
			}
			olds[i] = Flip(row, old)
			own = own && olds[i] == row.Count
		}
		// One frozen copy, made to size, is what the commit's readers see.
		dp := w.Clone()
		dp.Freeze()
		o.commit[pred] = dp
		e.last.DeltaTuples += dp.Len()
		// Statement (2): Δ(P) = set(Pν) − set(P) is both what cascades
		// and the externally visible change of a set view — the copy
		// itself when each row flips by its own count.
		if e.sem != eval.Set || own {
			o.cascade[pred] = dp
		} else if cd := dp.Pick(func(p int, _ int64) int64 { return olds[p] }); cd.Empty() {
			e.last.CascadeStopped++
		} else {
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
// changed subgoal, accumulating Δ(head) into perPred. Δi(r) reads its
// subgoal's Δ at i, the new state before it and the old state after it
// (Definition 4.1, Example 4.1's d1/d2 orientation).
func (e *Engine) applyRule(o *op, ri int, perPred map[string]*relation.Relation) error {
	rule := e.prog.Rules[ri]
	for i, lit := range rule.Body {
		d, err := e.delta(o, ri, i)
		if err != nil {
			return err
		}
		if d == nil {
			continue
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
		if lit.Kind == datalog.LitAggregate {
			dp.BorrowFrom(stored, d) // a head over ΔT is often ΔT's new row
		}
		before := dp.Len()
		err = e.evalInto(o, ri, i, d, eval.PlanDeltaNew, i, dp)
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

// delta returns the Δ image literal li of rule ri reads in a δ-rule, nil
// where the literal's relation did not change: Δ(Q) for a positive
// literal, Δ(¬Q) for a negated one, the ΔT of a GROUPBY subgoal (deltaT
// memoizes it, updating its group table). A DRed stratum reads its sign
// parts (image).
func (e *Engine) delta(o *op, ri, li int) (*relation.Relation, error) {
	lit := e.prog.Rules[ri].Body[li]
	cd := o.cascade[lit.Pred()]
	if cd == nil {
		return nil, nil
	}
	var d *relation.Relation
	switch lit.Kind {
	case datalog.LitPositive:
		return cd, nil
	case datalog.LitNegated:
		d = e.deltaNegation(lit.Atom.Pred, cd)
	case datalog.LitAggregate:
		var err error
		if d, err = e.deltaT(o, eval.RuleLit{Rule: ri, Lit: li}, lit.Agg); err != nil {
			return nil, err
		}
	}
	if d == nil || d.Empty() {
		return nil, nil
	}
	return d, nil
}

// deltaNegation computes Δ(¬Q) per Definition 6.1: a tuple of ΔQ that
// leaves the (positive) set image of Q enters ¬Q with count 1; one that
// enters it leaves ¬Q with count −1. Q's old counts are read as e.old
// reads them: a counting stratum's set image under set semantics.
func (e *Engine) deltaNegation(q string, dq *relation.Relation) *relation.Relation {
	image := e.sem == eval.Set && e.counted[q]
	return e.pick(e.db[q], dq, func(row relation.Row, old int64) int64 {
		if image {
			old = min(max(old, 0), 1)
		}
		return -Flip(row, old)
	})
}

// Flip is statement (2) for one row of a Δ: +1 where merging it into old
// brings its tuple into the set image, −1 where it takes it out, else 0.
// A follower reads a set view's change set off a record by it too.
func Flip(row relation.Row, old int64) int64 {
	switch now := old + row.Count; {
	case old <= 0 && now > 0:
		return 1
	case old > 0 && now <= 0:
		return -1
	}
	return 0
}
