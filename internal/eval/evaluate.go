package eval

import (
	"fmt"

	"ivm/internal/datalog"
	"ivm/internal/relation"
	"ivm/internal/strata"
)

// RuleLit addresses one body literal of one program rule; it keys the
// group tables an Evaluator builds for aggregate subgoals.
type RuleLit struct {
	Rule, Lit int
}

// Evaluator computes the materialization of a validated, stratified
// program bottom-up, stratum by stratum. Nonrecursive strata are
// evaluated in a single pass with derivation counting; recursive strata
// run a semi-naive fixpoint under set semantics (counting recursive views
// may not terminate — the paper restricts counting to nonrecursive views).
type Evaluator struct {
	prog  *datalog.Program
	strat *strata.Stratification
	sem   Semantics

	// TrackCounts, when false, collapses every derived relation to its
	// set image after evaluation — the "duplicate elimination without
	// counting" baseline of Section 5 used to measure counting overhead.
	TrackCounts bool

	// Instr, when non-nil, collects low-level evaluation metrics (join
	// probes and scans, heads built and borrowed) during Evaluate.
	Instr *Instruments

	// Planner caches the cost-based plans rule evaluation follows.
	// NewEvaluator gives the evaluator one of its own; an engine hands it
	// the planner its maintenance uses.
	Planner *Planner

	// GroupTables holds the GROUPBY materializations built during
	// Evaluate, keyed by (rule index, literal index). Maintenance engines
	// adopt these to run Algorithm 6.1 incrementally.
	GroupTables map[RuleLit]*GroupTable
}

// NewEvaluator builds an evaluator. The program must already validate.
func NewEvaluator(prog *datalog.Program, st *strata.Stratification, sem Semantics) *Evaluator {
	return &Evaluator{
		prog:        prog,
		strat:       st,
		sem:         sem,
		TrackCounts: true,
		Planner:     NewPlanner(nil),
		GroupTables: make(map[RuleLit]*GroupTable),
	}
}

// ErrRecursiveDuplicates is returned when duplicate semantics is requested
// for a recursive program: recursive counts can be infinite (Section 8).
var ErrRecursiveDuplicates = fmt.Errorf("eval: duplicate semantics is not supported for recursive programs (counts may be infinite)")

// source returns the reader for a subgoal over pred: under set semantics
// lower-stratum relations are consumed as set images (Section 5.1).
func (e *Evaluator) source(db *DB, pred string) relation.Reader {
	r := db.rel(pred)
	if e.sem == Set {
		return relation.SetImage(r)
	}
	return r
}

// Evaluate materializes every derived predicate of the program into db
// (which supplies the base relations). Derived relations already in db
// are replaced.
func (e *Evaluator) Evaluate(db *DB) error {
	byStratum := e.strat.RulesByStratum(e.prog)
	// Reset derived relations.
	for pred := range e.prog.DerivedPreds() {
		db.Put(pred, relation.New(arityOf(e.prog, pred)))
	}
	for s := 1; s <= e.strat.MaxStratum; s++ {
		rules := byStratum[s]
		if len(rules) == 0 {
			continue
		}
		recursive := false
		for _, ri := range rules {
			if e.strat.Recursive[e.prog.Rules[ri].Head.Pred] {
				recursive = true
				break
			}
		}
		var err error
		switch {
		case recursive && e.sem == Duplicate:
			return ErrRecursiveDuplicates
		case recursive:
			err = e.evalRecursiveStratum(db, s, rules)
		default:
			err = e.evalFlatStratum(db, rules)
		}
		if err != nil {
			return err
		}
	}
	if !e.TrackCounts {
		for pred := range e.prog.DerivedPreds() {
			db.Put(pred, db.rel(pred).ToSet())
		}
	}
	return nil
}

// sources resolves every literal of rule ri against db, building group
// tables for aggregate subgoals. inStratum optionally overrides readers
// for same-stratum predicates (semi-naive fixpoints pass the working
// relations); it may be nil.
func (e *Evaluator) sources(db *DB, ri int, inStratum map[string]relation.Reader) ([]Source, error) {
	rule := e.prog.Rules[ri]
	srcs := make([]Source, len(rule.Body))
	for li, lit := range rule.Body {
		switch lit.Kind {
		case datalog.LitPositive, datalog.LitNegated:
			if r, ok := inStratum[lit.Atom.Pred]; ok {
				srcs[li] = Source{Rel: r}
			} else {
				srcs[li] = Source{Rel: e.source(db, lit.Atom.Pred)}
			}
		case datalog.LitAggregate:
			key := RuleLit{ri, li}
			gt, ok := e.GroupTables[key]
			if !ok {
				var err error
				gt, err = BuildGroupTable(lit.Agg, e.source(db, lit.Agg.Inner.Pred))
				if err != nil {
					return nil, err
				}
				e.GroupTables[key] = gt
			}
			srcs[li] = Source{Rel: gt.Rel()}
		case datalog.LitCondition:
			// no relation
		}
	}
	return srcs, nil
}

// evalRule evaluates rule ri into out following the Planner's
// full-evaluation plan, keyed by the restricted literal delta (-1 outside
// semi-naive rounds).
func (e *Evaluator) evalRule(ri, delta int, srcs []Source, out *relation.Relation) error {
	rule := e.prog.Rules[ri]
	plan, err := e.Planner.PlanFor(PlanKey{Rule: ri, Kind: PlanEval, Delta: delta}, rule, srcs)
	if err != nil {
		return err
	}
	return EvalPlan(rule, srcs, plan, out, e.Instr)
}

// evalFlatStratum evaluates a nonrecursive stratum in one pass, with
// full derivation counting. Stratum numbers strictly increase along
// every cross-component dependency edge (see strata.computeSN), so the
// rules of a flat stratum never read each other's heads.
func (e *Evaluator) evalFlatStratum(db *DB, rules []int) error {
	for _, ri := range rules {
		rule := e.prog.Rules[ri]
		out := db.Ensure(rule.Head.Pred, len(rule.Head.Args))
		srcs, err := e.sources(db, ri, nil)
		if err != nil {
			return err
		}
		for li, lit := range rule.Body {
			if lit.Kind == datalog.LitAggregate { // a head over T is often T's row
				out.BorrowFrom(nil, e.GroupTables[RuleLit{ri, li}].Rel())
			}
		}
		err = e.evalRule(ri, -1, srcs, out)
		out.BorrowFrom(nil, nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// evalRecursiveStratum runs a semi-naive fixpoint over the stratum's
// rules under set semantics: every derived tuple is stored with count 1;
// per round, each rule is re-evaluated once per same-stratum body literal
// with that literal restricted to the previous round's delta.
func (e *Evaluator) evalRecursiveStratum(db *DB, s int, rules []int) error {
	inStratum := make(map[string]bool)
	for _, ri := range rules {
		inStratum[e.prog.Rules[ri].Head.Pred] = true
	}

	// Working relations (the stratum's predicates start empty).
	work := make(map[string]relation.Reader)
	for pred := range inStratum {
		work[pred] = db.rel(pred)
	}

	collect := func(tmp *relation.Relation, pred string, delta *relation.Relation) {
		full := db.rel(pred)
		tmp.Each(func(row relation.Row) {
			if row.Count > 0 && !full.Has(row.Tuple) {
				full.AddRow(row.WithCount(1))
				delta.AddRow(row.WithCount(1))
			}
		})
	}

	// A round evaluates all its rules before it folds any output: the
	// folds write the working relations the round's evaluations read, so
	// folding as it goes would change which round derives a tuple.
	type derived struct {
		pred string
		out  *relation.Relation
	}
	// Each (rule, Δ literal) refills its output of the last round (outs).
	var round []derived
	outs := make(map[[2]int]*relation.Relation)
	evalInto := func(ri, li int, srcs []Source) error {
		head, key := e.prog.Rules[ri].Head, [2]int{ri, li}
		if outs[key] == nil {
			outs[key] = relation.New(len(head.Args))
		}
		out := outs[key]
		out.Reset()
		round = append(round, derived{head.Pred, out})
		return e.evalRule(ri, li, srcs, out)
	}

	// Seed round: evaluate every rule against the (empty) stratum
	// relations — this covers all derivations not using in-stratum
	// predicates (the base cases).
	delta := make(map[string]*relation.Relation)
	for pred := range inStratum {
		delta[pred] = relation.New(arityOf(e.prog, pred))
	}
	for _, ri := range rules {
		srcs, err := e.sources(db, ri, work)
		if err != nil {
			return err
		}
		if err := evalInto(ri, -1, srcs); err != nil {
			return err
		}
	}
	for _, d := range round {
		collect(d.out, d.pred, delta[d.pred])
	}

	for {
		advanced := false
		for _, d := range delta {
			if !d.Empty() {
				advanced = true
				break
			}
		}
		if !advanced {
			return nil
		}
		next := make(map[string]*relation.Relation)
		for pred := range inStratum {
			next[pred] = relation.New(arityOf(e.prog, pred))
		}
		round = round[:0]
		for _, ri := range rules {
			for li, lit := range e.prog.Rules[ri].Body {
				if lit.Kind != datalog.LitPositive || !inStratum[lit.Atom.Pred] {
					continue
				}
				d := delta[lit.Atom.Pred]
				if d.Empty() {
					continue
				}
				srcs, err := e.sources(db, ri, work)
				if err != nil {
					return err
				}
				srcs[li] = Source{Rel: d}
				if err := evalInto(ri, li, srcs); err != nil {
					return err
				}
			}
		}
		for _, d := range round {
			collect(d.out, d.pred, next[d.pred])
		}
		delta = next
	}
}
