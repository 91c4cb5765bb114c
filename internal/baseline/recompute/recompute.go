// Package recompute is the non-incremental baseline: after every batch of
// base changes it re-evaluates the whole view program from scratch and
// diffs the result against the previous materialization. Section 1 of the
// paper notes this is occasionally the *better* strategy (e.g. when an
// entire base relation is deleted) — experiment E6 locates the crossover.
package recompute

import (
	"fmt"
	"sync"
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/relation"
	"ivm/internal/strata"
)

// Engine materializes a view program by full recomputation.
type Engine struct {
	prog  *datalog.Program
	strat *strata.Stratification
	sem   eval.Semantics
	db    *eval.DB

	// Metrics, when non-nil, receives the recompute_* counters and
	// timings (and the eval_* series of the per-Apply re-evaluations).
	// Set it before the first Apply.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives per-Apply trace events. Set it
	// before the first Apply.
	Tracer metrics.Tracer

	// planner caches join plans across Applies; it is built on the first
	// Apply so Metrics can be set after New.
	planner func() *eval.Planner

	// lastDeltas holds, per predicate, the exact signed count delta the
	// most recent Apply committed into stored content (base merges plus
	// the old-vs-new diff of every changed view). Snapshot publication
	// replays these onto the previous published version.
	lastDeltas map[string]*relation.Relation
}

// CommittedDeltas returns, per predicate, the exact signed count delta
// the most recent Apply merged into its stored relation.
func (e *Engine) CommittedDeltas() map[string]*relation.Relation { return e.lastDeltas }

// Fold merges deltas — the CommittedDeltas of the engine that ran the
// commit — into stored content without re-evaluating anything.
func (e *Engine) Fold(deltas map[string]*relation.Relation) {
	e.db.MergeDeltas(deltas)
	e.lastDeltas = deltas
}

// New validates prog and computes the initial materialization.
func New(prog *datalog.Program, base *eval.DB, sem eval.Semantics) (*Engine, error) {
	if err := datalog.Validate(prog); err != nil {
		return nil, err
	}
	st, err := strata.Compute(prog)
	if err != nil {
		return nil, err
	}
	db := base.Clone()
	if sem == eval.Set {
		// Under set semantics base relations are sets.
		for _, pred := range db.Preds() {
			db.Put(pred, db.Get(pred).ToSet())
		}
	}
	ev := eval.NewEvaluator(prog, st, sem)
	if err := ev.Evaluate(db); err != nil {
		return nil, err
	}
	e := &Engine{prog: prog, strat: st, sem: sem, db: db}
	e.planner = sync.OnceValue(func() *eval.Planner { return eval.NewPlanner(e.Metrics) })
	return e, nil
}

// Stats returns nil: a recomputation keeps no work counters.
func (e *Engine) Stats() any { return nil }

// Program returns the view program.
func (e *Engine) Program() *datalog.Program { return e.prog }

// Relation returns the stored relation for pred, or nil.
func (e *Engine) Relation(pred string) *relation.Relation { return e.db.Get(pred) }

// DB exposes the engine's storage (read-only use).
func (e *Engine) DB() *eval.DB { return e.db }

// Apply merges the base changes and recomputes every view from scratch,
// returning the count delta of each derived relation (diff of old vs new).
func (e *Engine) Apply(baseDelta map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	timing := e.Tracer != nil || e.Metrics != nil
	var applyStart time.Time
	if timing {
		applyStart = time.Now()
	}
	if e.Tracer != nil {
		e.Tracer.BatchStart("recompute", len(baseDelta))
	}
	derived := e.prog.DerivedPreds()
	commit := make(map[string]*relation.Relation)
	for pred, d := range baseDelta {
		if derived[pred] {
			return nil, fmt.Errorf("recompute: delta for derived predicate %s", pred)
		}
		stored := e.db.Ensure(pred, d.Arity())
		if stored.Arity() >= 0 && d.Arity() >= 0 && stored.Arity() != d.Arity() {
			return nil, fmt.Errorf("recompute: delta for %s has arity %d, relation has arity %d", pred, d.Arity(), stored.Arity())
		}
		var verr error
		cd := d
		if e.sem == eval.Set {
			// Base relations are sets: collapse the delta to transitions.
			cd = relation.New(d.Arity())
			d.Each(func(row relation.Row) {
				if verr != nil {
					return
				}
				has := stored.Has(row.Tuple)
				switch {
				case row.Count > 0 && !has:
					cd.Add(row.Tuple, 1)
				case row.Count < 0:
					if !has {
						verr = fmt.Errorf("recompute: deletion of absent tuple %s%s", pred, row.Tuple)
						return
					}
					cd.Add(row.Tuple, -1)
				}
			})
		} else {
			d.Each(func(row relation.Row) {
				if verr == nil && stored.Count(row.Tuple)+row.Count < 0 {
					verr = fmt.Errorf("recompute: deletion of %s%s exceeds its stored count", pred, row.Tuple)
				}
			})
		}
		if verr != nil {
			return nil, verr
		}
		commit[pred] = cd
	}
	old := make(map[string]*relation.Relation)
	for pred := range derived {
		old[pred] = e.db.Get(pred)
	}
	for pred, d := range commit {
		e.db.Ensure(pred, d.Arity()).MergeDelta(d)
	}
	ev := eval.NewEvaluator(e.prog, e.strat, e.sem)
	ev.Instr = eval.NewInstruments(e.Metrics)
	ev.Planner = e.planner()
	if err := ev.Evaluate(e.db); err != nil {
		// A refused apply leaves the engine as it found it.
		for pred, d := range commit {
			e.db.Get(pred).MergeDelta(d.Negate())
		}
		for pred, r := range old {
			e.db.Put(pred, r)
		}
		return nil, err
	}
	deltas := make(map[string]*relation.Relation)
	for pred := range derived {
		d := relation.Diff(old[pred], e.db.Get(pred))
		if !d.Empty() {
			deltas[pred] = d
		}
	}
	e.lastDeltas = make(map[string]*relation.Relation, len(commit)+len(deltas))
	for pred, cd := range commit {
		if !cd.Empty() {
			if e.sem == eval.Set {
				cd.Freeze() // the set image built above; otherwise the caller's relation
			}
			e.lastDeltas[pred] = cd
		}
	}
	for pred, d := range deltas {
		d.Freeze()
		e.lastDeltas[pred] = d
	}
	if r := e.Metrics; r != nil {
		r.Counter("recompute_applies_total").Inc()
	}
	if timing {
		d := time.Since(applyStart)
		if r := e.Metrics; r != nil {
			r.Histogram("recompute_apply_seconds").Observe(d)
		}
		if e.Tracer != nil {
			e.Tracer.BatchDone(d, len(deltas))
		}
	}
	return deltas, nil
}
