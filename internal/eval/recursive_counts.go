package eval

import (
	"fmt"

	"ivm/internal/datalog"
	"ivm/internal/relation"
)

// ErrCountsDiverge is returned when a recursive stratum's derivation
// counts do not reach a fixpoint within the iteration budget — the
// infinite-count case the paper warns about for counting on recursive
// views (Section 8; [GKM92], [MS93a]). Cyclic data under duplicate
// semantics has tuples with infinitely many derivations; use DRed.
type ErrCountsDiverge struct {
	Stratum    int
	Iterations int
}

func (e *ErrCountsDiverge) Error() string {
	return fmt.Sprintf("eval: derivation counts in stratum %d did not converge after %d iterations (cyclic derivations have infinite counts — use set semantics / DRed)", e.Stratum, e.Iterations)
}

// DefaultMaxIterations bounds counted recursive fixpoints. Derivation
// depth on acyclic data is at most the longest derivation chain; anything
// past this budget is treated as divergence.
const DefaultMaxIterations = 10000

// evalRecursiveStratumCounted computes the duplicate-semantics fixpoint
// of a recursive stratum: count(t) = number of derivation trees of t,
// finite exactly when no derivation cycles feed t ([GKM92]). It uses the
// counted semi-naive recurrence
//
//	Δ_r = T(P_{r-1}) − T(P_{r-2})
//
// expanded through delta rules: position k takes Δ_{r-1}, positions
// before k see P_{r-1} (old ⊎ all deltas through r-1), positions after k
// see P_{r-2} (old ⊎ all deltas through r-2). Exact multiset difference —
// no derivation is counted twice.
func (e *Evaluator) evalRecursiveStratumCounted(db *DB, s int, rules []int) error {
	maxIter := e.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	inStratum := make(map[string]bool)
	for _, ri := range rules {
		inStratum[e.prog.Rules[ri].Head.Pred] = true
	}

	// acc[pred] holds all deltas merged so far (P_{r-1} = stored ⊎ acc);
	// accPrev excludes the previous round (P_{r-2}).
	// The stored relations start empty for this stratum, so P_0 = ∅.
	acc := make(map[string]*relation.Relation)
	prev := make(map[string]*relation.Relation) // Δ_{r-1}
	for pred := range inStratum {
		acc[pred] = relation.New(arityOf(e.prog, pred))
		prev[pred] = relation.New(arityOf(e.prog, pred))
	}
	readerAt := func(pred string, includePrev bool) relation.Reader {
		base := db.rel(pred)
		if !inStratum[pred] {
			if e.sem == Set {
				return relation.SetImage(base)
			}
			return base
		}
		if includePrev {
			return relation.Overlay(base, acc[pred])
		}
		// P_{r-2}: acc without the previous round.
		return relation.Overlay(relation.Overlay(base, acc[pred]), prev[pred].Negate())
	}

	// Round 1: Δ_1 = T(∅-stratum state) — every rule evaluated with
	// in-stratum relations empty (only non-recursive rule bodies fire).
	for _, ri := range rules {
		rule := e.prog.Rules[ri]
		srcs, err := e.sources(db, ri, readersFor(rule, func(pred string) relation.Reader {
			if inStratum[pred] {
				return acc[pred] // empty
			}
			return nil
		}))
		if err != nil {
			return err
		}
		tmp := relation.New(len(rule.Head.Args))
		if err := e.evalRule(ri, -1, srcs, tmp); err != nil {
			return err
		}
		prev[rule.Head.Pred].MergeDelta(tmp)
	}
	for pred := range inStratum {
		acc[pred].MergeDelta(prev[pred])
	}

	for iter := 1; ; iter++ {
		quiet := true
		for _, d := range prev {
			if !d.Empty() {
				quiet = false
				break
			}
		}
		if quiet {
			break
		}
		if iter > maxIter {
			return &ErrCountsDiverge{Stratum: s, Iterations: maxIter}
		}
		next := make(map[string]*relation.Relation)
		for pred := range inStratum {
			next[pred] = relation.New(arityOf(e.prog, pred))
		}
		for _, ri := range rules {
			rule := e.prog.Rules[ri]
			for li, lit := range rule.Body {
				if lit.Kind != datalog.LitPositive || !inStratum[lit.Atom.Pred] {
					continue
				}
				d := prev[lit.Atom.Pred]
				if d.Empty() {
					continue
				}
				srcs := make([]Source, len(rule.Body))
				for j, l2 := range rule.Body {
					switch {
					case j == li:
						srcs[j] = Source{Rel: d}
					case l2.Kind == datalog.LitPositive || l2.Kind == datalog.LitNegated:
						srcs[j] = Source{Rel: readerAt(l2.Atom.Pred, j < li)}
					case l2.Kind == datalog.LitAggregate:
						// Aggregates reference lower strata only; reuse the
						// evaluator's cached group tables.
						s2, err := e.sources(db, ri, nil)
						if err != nil {
							return err
						}
						srcs[j] = s2[j]
					}
				}
				tmp := relation.New(len(rule.Head.Args))
				if err := e.evalRule(ri, li, srcs, tmp); err != nil {
					return err
				}
				next[rule.Head.Pred].MergeDelta(tmp)
			}
		}
		for pred := range inStratum {
			acc[pred].MergeDelta(next[pred])
		}
		prev = next
	}

	for pred := range inStratum {
		db.rel(pred).MergeDelta(acc[pred])
	}
	return nil
}

// readersFor builds the inStratum override map used by sources().
func readersFor(rule datalog.Rule, pick func(pred string) relation.Reader) map[string]relation.Reader {
	out := make(map[string]relation.Reader)
	for _, lit := range rule.Body {
		if pred := lit.Pred(); pred != "" {
			if r := pick(pred); r != nil {
				out[pred] = r
			}
		}
	}
	return out
}
