package dred

import (
	"fmt"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/relation"
)

// ErrDiverged is returned by Apply when a recursive stratum's count
// deltas do not quiesce within the iteration budget — the change touched
// a derivation cycle, so the new counts are infinite ([GKM92]; paper
// Section 8's caveat). The engine state is unchanged.
type ErrDiverged struct {
	Stratum    int
	Iterations int
}

func (e *ErrDiverged) Error() string {
	return fmt.Sprintf("counting: count deltas in stratum %d did not converge after %d iterations (derivation cycle — use the DRed engine)", e.Stratum, e.Iterations)
}

// recount computes Δ(P) for a recursive stratum under duplicate semantics
// by a counted delta fixpoint:
//
//	round 0: the ordinary delta rules of Definition 4.1, driven by the
//	         changes to lower strata, with in-stratum relations at their
//	         old values — the direct effect of the base changes;
//	round i: in-stratum delta positions take round i−1's delta; earlier
//	         positions see old ⊎ (all deltas through i−1), later positions
//	         old ⊎ (all deltas through i−2); lower strata are fixed at
//	         their new values — the ripple through the recursion.
//
// Summing the rounds telescopes to count(t)ν − count(t) exactly; the
// fixpoint is reached when a round produces no net count change. On
// cyclic derivations the deltas never quiesce and ErrDiverged is
// returned after the iteration budget.
func (e *Engine) recount(o *op, stratum int, rules []int, perPred map[string]*relation.Relation) error {
	inStratum := make(map[string]bool)
	for _, ri := range rules {
		inStratum[e.prog.Rules[ri].Head.Pred] = true
	}

	// ---- Round 0: effects of lower-strata changes. ----
	round := make(map[string]*relation.Relation)
	for _, ri := range rules {
		if err := e.applyRule(o, ri, inStratum, round); err != nil {
			return err
		}
	}
	acc := make(map[string]*relation.Relation)
	for _, ri := range rules {
		rule := e.prog.Rules[ri]
		if round[rule.Head.Pred] == nil {
			round[rule.Head.Pred] = e.headDelta(rule, nil)
		}
		acc[rule.Head.Pred] = round[rule.Head.Pred].Clone()
	}

	maxIter := e.maxIter
	if maxIter <= 0 {
		maxIter = eval.DefaultMaxIterations
	}
	for iter := 0; ; iter++ {
		quiet := true
		for _, d := range round {
			quiet = quiet && d.Empty()
		}
		if quiet {
			break
		}
		if iter >= maxIter {
			return &ErrDiverged{Stratum: stratum, Iterations: maxIter}
		}
		next := make(map[string]*relation.Relation)
		for pred := range inStratum {
			next[pred] = relation.New(round[pred].Arity())
		}
		// negPrev caches Δ_{i-1}.Negate() per pred for P_{r-2} readers.
		negPrev := make(map[string]*relation.Relation)
		for pred, d := range round {
			negPrev[pred] = d.Negate()
		}
		reader := func(pred string, includePrev bool) relation.Reader {
			if !inStratum[pred] {
				return e.newR(o, pred) // lower strata: always the new value
			}
			r := relation.Overlay(relation.Reader(e.db.Ensure(pred, -1)), acc[pred])
			if !includePrev {
				r = relation.Overlay(r, negPrev[pred])
			}
			return r
		}
		for _, ri := range rules {
			rule := e.prog.Rules[ri]
			for li, lit := range rule.Body {
				if lit.Kind != datalog.LitPositive || !inStratum[lit.Atom.Pred] {
					continue
				}
				d := round[lit.Atom.Pred]
				if d.Empty() {
					continue
				}
				srcs := make([]eval.Source, len(rule.Body))
				for j, l2 := range rule.Body {
					var err error
					switch {
					case j == li:
						srcs[j] = eval.Source{Rel: d}
					case l2.Kind == datalog.LitPositive || l2.Kind == datalog.LitNegated:
						srcs[j] = eval.Source{Rel: reader(l2.Atom.Pred, j < li)}
					case l2.Kind == datalog.LitAggregate:
						srcs[j], err = e.source(o, l2, eval.RuleLit{Rule: ri, Lit: j}, true)
					}
					if err != nil {
						return err
					}
				}
				out := e.headDelta(rule, acc[rule.Head.Pred]) // acc moves after the round
				plan, err := e.planner.PlanFor(eval.PlanKey{Rule: ri, Kind: eval.PlanDeltaNew, Delta: li}, rule, srcs)
				if err == nil {
					err = eval.EvalPlan(rule, srcs, plan, out, e.instr)
				}
				if err != nil {
					return err
				}
				e.last.DeltaRulesEvaluated++
				next[rule.Head.Pred].MergeDelta(out)
			}
		}
		for pred := range inStratum {
			acc[pred].MergeDelta(next[pred])
		}
		round = next
	}

	for pred := range inStratum {
		if !acc[pred].Empty() {
			perPred[pred] = acc[pred]
		}
	}
	return nil
}
