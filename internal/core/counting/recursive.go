package counting

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

// applyRecursiveStratum computes Δ(P) for a recursive stratum under
// duplicate semantics by a counted delta fixpoint:
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
// returned after maxIter rounds.
func (e *Engine) applyRecursiveStratum(stratum int, rules []int,
	cascade map[string]*relation.Relation,
	pendingT map[eval.RuleLit]*relation.Relation,
	perPred map[string]*relation.Relation) error {

	inStratum := make(map[string]bool)
	for _, ri := range rules {
		inStratum[e.prog.Rules[ri].Head.Pred] = true
	}

	// ---- Round 0: effects of lower-strata changes. ----
	round := make(map[string]*relation.Relation)
	for _, ri := range rules {
		rule := e.prog.Rules[ri]
		if round[rule.Head.Pred] == nil {
			round[rule.Head.Pred] = e.headDelta(rule, nil)
		}
		// Reuse the nonrecursive delta-rule machinery, but restrict the Δ
		// positions to subgoals over *changed lower* predicates and route
		// results into the round accumulator.
		if err := e.applyRuleLowerOnly(ri, inStratum, cascade, pendingT, round[rule.Head.Pred]); err != nil {
			return err
		}
	}

	acc := make(map[string]*relation.Relation)
	for pred := range inStratum {
		acc[pred] = relation.New(round[pred].Arity())
		acc[pred].MergeDelta(round[pred])
	}

	maxIter := e.maxIterations()
	for iter := 0; ; iter++ {
		quiet := true
		for _, d := range round {
			if !d.Empty() {
				quiet = false
				break
			}
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
			old := e.db.Ensure(pred, -1)
			if !inStratum[pred] {
				// Lower strata: always the new value.
				if cd := cascade[pred]; cd != nil {
					return relation.Overlay(e.old(pred), cd)
				}
				return e.old(pred)
			}
			r := relation.Overlay(relation.Reader(old), acc[pred])
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
					switch {
					case j == li:
						srcs[j] = eval.Source{Rel: d}
					case l2.Kind == datalog.LitPositive || l2.Kind == datalog.LitNegated:
						srcs[j] = eval.Source{Rel: reader(l2.Atom.Pred, j < li)}
					case l2.Kind == datalog.LitAggregate:
						srcs[j] = e.sideSource(l2, eval.RuleLit{Rule: ri, Lit: j}, cascade, pendingT, true)
					}
				}
				out := e.headDelta(rule, acc[rule.Head.Pred]) // acc moves after the round
				plan, err := e.planner.PlanFor(eval.PlanKey{Rule: ri, Kind: eval.PlanDeltaNew, Delta: li}, rule, srcs)
				if err != nil {
					return err
				}
				if err := eval.EvalPlan(rule, srcs, plan, out, e.instr); err != nil {
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

// applyRuleLowerOnly evaluates rule ri's delta rules Δk for positions k
// whose predicate changed in a lower stratum, with in-stratum subgoals at
// their old values (recursive round 0).
func (e *Engine) applyRuleLowerOnly(ri int, inStratum map[string]bool,
	cascade map[string]*relation.Relation,
	pendingT map[eval.RuleLit]*relation.Relation,
	dp *relation.Relation) error {

	rule := e.prog.Rules[ri]
	n := len(rule.Body)
	litDelta := make([]*relation.Relation, n)
	for li, lit := range rule.Body {
		if pred := lit.Pred(); pred == "" || inStratum[pred] {
			continue
		}
		switch lit.Kind {
		case datalog.LitPositive:
			if cd := cascade[lit.Atom.Pred]; cd != nil {
				litDelta[li] = cd
			}
		case datalog.LitNegated:
			if cd := cascade[lit.Atom.Pred]; cd != nil {
				if dn := deltaNegation(e.old(lit.Atom.Pred), cd); !dn.Empty() {
					litDelta[li] = dn
				}
			}
		case datalog.LitAggregate:
			inner := lit.Agg.Inner.Pred
			cd := cascade[inner]
			if cd == nil {
				continue
			}
			key := eval.RuleLit{Rule: ri, Lit: li}
			dt, done := pendingT[key]
			if !done {
				gt, ok := e.gts[key]
				if !ok {
					return fmt.Errorf("counting: internal error: no group table for rule %d literal %d", ri, li)
				}
				var err error
				dt, err = gt.ApplyDelta(cd, relation.Overlay(e.old(inner), cd), e.instr)
				if err != nil {
					return err
				}
				pendingT[key] = dt
			}
			if !dt.Empty() {
				litDelta[li] = dt
			}
		}
	}

	for i := 0; i < n; i++ {
		if litDelta[i] == nil {
			continue
		}
		srcs := make([]eval.Source, n)
		for j := 0; j < n; j++ {
			if j == i {
				srcs[j] = eval.Source{Rel: litDelta[i], JoinDelta: rule.Body[i].Kind == datalog.LitNegated}
				continue
			}
			lit := rule.Body[j]
			if pred := lit.Pred(); pred != "" && inStratum[pred] {
				// In-stratum subgoals stay at their old values in round 0.
				srcs[j] = eval.Source{Rel: e.old(pred)}
				continue
			}
			srcs[j] = e.sideSource(lit, eval.RuleLit{Rule: ri, Lit: j}, cascade, pendingT, j < i)
		}
		plan, err := e.planner.PlanFor(eval.PlanKey{Rule: ri, Kind: eval.PlanDeltaNew, Delta: i}, rule, srcs)
		if err != nil {
			return err
		}
		if err := eval.EvalPlan(rule, srcs, plan, dp, e.instr); err != nil {
			return err
		}
		e.last.DeltaRulesEvaluated++
	}
	return nil
}

func (e *Engine) maxIterations() int {
	if e.maxIter > 0 {
		return e.maxIter
	}
	return eval.DefaultMaxIterations
}
