// Package counting implements the paper's counting algorithm
// (Algorithm 4.1) for incremental maintenance of nonrecursive views, with
// stratified negation (Section 6.1, Definition 6.1) and aggregation
// (Section 6.2, Algorithm 6.1), under both set and duplicate semantics.
//
// Every materialized tuple carries count(t), its number of alternative
// derivations. Given changes to the base relations, the engine evaluates
// the delta rules Δi(r) of Definition 4.1 stratum by stratum (least RSN
// first) and produces exactly the tuples whose derivation counts changed
// (Theorem 4.1) — inserted tuples with positive counts, deleted ones with
// negative counts. Under set semantics the boxed statement (2) of
// Algorithm 4.1 stops cascading when the set image of a relation is
// unchanged even though counts moved (Section 5.1).
package counting

import (
	"fmt"
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/relation"
	"ivm/internal/strata"
)

// ErrRecursive is returned when a recursive program is given: the paper
// proposes counting for nonrecursive views only (recursive counts can be
// infinite); use the DRed engine instead.
var ErrRecursive = fmt.Errorf("counting: program is recursive; use dred.Engine (counting may not terminate on recursive views)")

// Stats describes the work done by the most recent Apply call.
type Stats struct {
	// DeltaRulesEvaluated counts Δi(r) evaluations performed.
	DeltaRulesEvaluated int
	// DeltaTuples counts tuples (with count changes) produced across all
	// derived relations.
	DeltaTuples int
	// CascadeStopped counts derived relations whose counts changed but
	// whose set image did not, so statement (2) suppressed propagation.
	CascadeStopped int
}

// Config selects the engine's semantics and ablation switches.
type Config struct {
	// Semantics is the external view semantics (set or duplicate).
	Semantics eval.Semantics
	// DisableSetOpt turns off statement (2) of Algorithm 4.1 (the
	// set-semantics cascade cut, Section 5.1). Without it, a
	// set-semantics view must fall back to full duplicate-count
	// bookkeeping — counts multiply across strata and *every* count
	// change cascades upward even when no set image moved. This is the
	// ablation of experiment E3.
	DisableSetOpt bool
	// AllowRecursion enables counting on recursive views ([GKM92]; the
	// paper's Section 8 notes counting extends to "certain recursive
	// views"). Requires duplicate semantics: count(t) becomes the number
	// of derivation trees, finite only when no derivation cycle feeds t.
	// Materialization and maintenance return ErrCountsDiverge/ErrDiverged
	// when counts are infinite — use the DRed engine for such data.
	AllowRecursion bool
	// MaxIterations bounds recursive count fixpoints (0 = default).
	MaxIterations int
	// Metrics, when non-nil, receives the engine's counters and timing
	// histograms (counting_*, eval_* and planner_* series). Nil disables
	// collection.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives per-batch trace events. Nil costs a
	// single pointer check per event site.
	Tracer metrics.Tracer
}

// Engine maintains the materialization of a nonrecursive view program.
type Engine struct {
	prog  *datalog.Program
	strat *strata.Stratification
	// sem is the internal counting regime: Set means per-stratum counts
	// with statement (2); Duplicate means full multiset counts.
	sem eval.Semantics
	// reportSet indicates the external semantics is Set even though the
	// internal regime is Duplicate (DisableSetOpt ablation): reported
	// changes are then collapsed to set transitions.
	reportSet bool
	// recursion: whether recursive strata are maintained (counted delta
	// fixpoints) and their iteration budget.
	allowRecursion bool
	maxIter        int

	db  *eval.DB
	gts map[eval.RuleLit]*eval.GroupTable

	// last holds the work counters of the most recent Apply. It is
	// written only by Apply and read via Stats(); callers that share the
	// engine across goroutines must serialize Apply against Stats (the
	// public ivm.Views copies it into each published snapshot version).
	last Stats

	// lastDeltas holds, per predicate, the exact signed count delta the
	// most recent Apply merged into stored content — strictly wider than
	// the returned visible deltas under set semantics, where statement
	// (2) can stop the cascade while stored derivation counts still
	// moved. Snapshot publication replays exactly these deltas onto the
	// previous published version.
	lastDeltas map[string]*relation.Relation

	// planner caches cost-based delta-rule plans.
	planner *eval.Planner

	// tracer and the resolved metric instruments; all nil-safe.
	tracer        metrics.Tracer
	instr         *eval.Instruments
	mApplies      *metrics.Counter
	mDeltaRules   *metrics.Counter
	mDeltaTuples  *metrics.Counter
	mCascadeStops *metrics.Counter
	mApplySeconds *metrics.Histogram
	mStratumSecs  *metrics.Histogram
}

// Stats returns the work counters of the most recent Apply, as a Stats.
func (e *Engine) Stats() any { return e.last }

// CommittedDeltas returns, per predicate, the exact signed count delta
// the most recent Apply merged into its stored relation (base and
// derived, including count-only moves that statement (2) kept from
// cascading). The relations are not mutated after Apply returns.
func (e *Engine) CommittedDeltas() map[string]*relation.Relation { return e.lastDeltas }

// Fold merges deltas — the CommittedDeltas of the engine that ran the
// commit — into stored content without evaluating a rule: Theorem 4.1
// makes them exactly the changed derivations with their counts, so the
// state after the commit is stored ⊎ deltas. The caller has checked that
// no count falls below zero and leaves deltas alone afterwards. Group
// tables cannot be carried by a fold: the next Apply rebuilds them.
func (e *Engine) Fold(deltas map[string]*relation.Relation) {
	e.db.MergeDeltas(deltas)
	e.lastDeltas, e.last, e.gts = deltas, Stats{}, nil
}

// observing reports whether any per-stratum timing consumer is active,
// so the unobserved hot path skips clock reads entirely.
func (e *Engine) observing() bool { return e.tracer != nil || e.mStratumSecs != nil }

// New validates and stratifies prog, materializes its views over the base
// relations in base (which is cloned; the engine owns its storage), and
// returns a ready engine.
func New(prog *datalog.Program, base *eval.DB, sem eval.Semantics) (*Engine, error) {
	return NewWithConfig(prog, base, Config{Semantics: sem})
}

// NewWithConfig is New with ablation switches.
func NewWithConfig(prog *datalog.Program, base *eval.DB, cfg Config) (*Engine, error) {
	if err := datalog.Validate(prog); err != nil {
		return nil, err
	}
	st, err := strata.Compute(prog)
	if err != nil {
		return nil, err
	}
	recursive := false
	for pred := range prog.DerivedPreds() {
		if st.Recursive[pred] {
			recursive = true
			break
		}
	}
	if recursive {
		if !cfg.AllowRecursion {
			return nil, ErrRecursive
		}
		if cfg.Semantics != eval.Duplicate {
			return nil, fmt.Errorf("counting: recursive counting requires duplicate semantics (for set semantics use the DRed engine)")
		}
	}
	sem := cfg.Semantics
	reportSet := false
	if sem == eval.Set && cfg.DisableSetOpt {
		// Without statement (2) a set view needs full duplicate counts.
		sem = eval.Duplicate
		reportSet = true
	}
	db := base.Clone()
	if cfg.Semantics == eval.Set {
		// Under set semantics base relations are sets: multiplicities in
		// the input collapse.
		for _, pred := range db.Preds() {
			db.Put(pred, db.Get(pred).ToSet())
		}
	}
	instr := eval.NewInstruments(cfg.Metrics)
	planner := eval.NewPlanner(cfg.Metrics)
	ev := eval.NewEvaluator(prog, st, sem)
	ev.RecursiveCounts = cfg.AllowRecursion
	ev.MaxIterations = cfg.MaxIterations
	ev.Instr = instr
	ev.Planner = planner
	if err := ev.Evaluate(db); err != nil {
		return nil, err
	}
	e := &Engine{
		prog: prog, strat: st, sem: sem, reportSet: reportSet,
		allowRecursion: cfg.AllowRecursion, maxIter: cfg.MaxIterations,
		db: db, gts: ev.GroupTables,
		planner: planner,
		tracer:  cfg.Tracer, instr: instr,
	}
	if r := cfg.Metrics; r != nil {
		e.mApplies = r.Counter("counting_applies_total")
		e.mDeltaRules = r.Counter("counting_delta_rules_total")
		e.mDeltaTuples = r.Counter("counting_delta_tuples_total")
		e.mCascadeStops = r.Counter("counting_cascade_stops_total")
		e.mApplySeconds = r.Histogram("counting_apply_seconds")
		e.mStratumSecs = r.Histogram("counting_stratum_seconds")
	}
	return e, nil
}

// Semantics returns the external view semantics.
func (e *Engine) Semantics() eval.Semantics {
	if e.reportSet {
		return eval.Set
	}
	return e.sem
}

// Program returns the maintained view program.
func (e *Engine) Program() *datalog.Program { return e.prog }

// Relation returns the stored relation (base or derived) for pred, or nil.
// Derived tuples carry their derivation counts; treat it as read-only.
func (e *Engine) Relation(pred string) *relation.Relation { return e.db.Get(pred) }

// DB exposes the engine's storage (read-only use).
func (e *Engine) DB() *eval.DB { return e.db }

// GroupRel returns the committed T of rule ri's aggregate literal li, or
// nil without a table for it. Treat it as read-only.
func (e *Engine) GroupRel(ri, li int) *relation.Relation {
	if gt := e.gts[eval.RuleLit{Rule: ri, Lit: li}]; gt != nil {
		return gt.Rel()
	}
	return nil
}

// old returns the reader a rule body uses for pred's pre-change state:
// under set semantics, the set image (Section 5.1's per-stratum counts).
func (e *Engine) old(pred string) relation.Reader {
	r := e.db.Ensure(pred, -1)
	if e.sem == eval.Set {
		return relation.SetImage(r)
	}
	return r
}

// Apply maintains every view given a batch of base-relation changes
// (positive counts insert, negative delete — Section 3's Δ notation).
// It returns the externally visible change of each derived relation:
// under duplicate semantics the full count deltas, under set semantics
// the set transitions (tuples entering/leaving the view with counts ±1).
//
// Deleted base tuples must be a subset of the stored base relations
// (Lemma 4.1's precondition); violations are rejected before any state
// changes.
func (e *Engine) Apply(baseDelta map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	e.last = Stats{}
	timing := e.observing() || e.mApplySeconds != nil
	var batchStart time.Time
	if timing {
		batchStart = time.Now()
	}
	if e.tracer != nil {
		e.tracer.BatchStart("counting", len(baseDelta))
	}
	if e.gts == nil {
		// A Fold dropped the group tables: rebuild them over stored
		// content, as the initial evaluation built them.
		e.gts = make(map[eval.RuleLit]*eval.GroupTable)
		for ri, rule := range e.prog.Rules {
			if _, err := eval.SourcesAt(rule, ri, e.db, e.sem, e.gts); err != nil {
				return nil, err
			}
		}
	}
	derived := e.prog.DerivedPreds()
	externalSet := e.sem == eval.Set || e.reportSet

	// cascade holds the Δ image each higher stratum consumes — and, for
	// base relations, also what gets committed. Under set semantics base
	// relations are sets: insertions of present tuples are no-ops and
	// deletions must refer to stored tuples (Lemma 4.1's precondition);
	// under duplicate semantics counts accumulate and deletions must not
	// exceed stored multiplicities.
	cascade := make(map[string]*relation.Relation)
	commitBase := make(map[string]*relation.Relation)
	for pred, d := range baseDelta {
		if derived[pred] {
			return nil, fmt.Errorf("counting: delta for derived predicate %s (only base relations may change)", pred)
		}
		stored := e.db.Ensure(pred, d.Arity())
		if stored.Arity() >= 0 && d.Arity() >= 0 && stored.Arity() != d.Arity() {
			return nil, fmt.Errorf("counting: delta for %s has arity %d, relation has arity %d", pred, d.Arity(), stored.Arity())
		}
		var verr error
		var cd *relation.Relation
		if externalSet {
			cd = pick(d, func(row relation.Row) int64 {
				has := stored.Has(row.Tuple)
				switch {
				case row.Count > 0 && !has:
					return 1
				case row.Count < 0 && has:
					return -1
				case row.Count < 0 && verr == nil:
					verr = fmt.Errorf("counting: deletion of absent tuple %s%s", pred, row.Tuple)
				}
				return 0
			})
		} else {
			d.Each(func(row relation.Row) {
				if verr == nil && stored.Count(row.Tuple)+row.Count < 0 {
					verr = fmt.Errorf("counting: deletion of %s%s exceeds its stored count %d", pred, row.Tuple, stored.Count(row.Tuple))
				}
			})
			cd = d
		}
		if verr != nil {
			return nil, verr
		}
		commitBase[pred] = cd
		if !cd.Empty() {
			cascade[pred] = cd
		}
	}

	fullDeltas := make(map[string]*relation.Relation)
	visible := make(map[string]*relation.Relation)
	pendingT := make(map[eval.RuleLit]*relation.Relation)

	// fail aborts the round cleanly: nothing was committed yet, but group
	// tables may hold uncommitted state — roll them back so the engine
	// stays usable (e.g. after ErrDiverged).
	fail := func(err error) (map[string]*relation.Relation, error) {
		for key := range pendingT {
			e.gts[key].Rollback()
		}
		return nil, err
	}

	byStratum := e.strat.RulesByStratum(e.prog)
	for s := 1; s <= e.strat.MaxStratum; s++ {
		var stratumStart time.Time
		if timing {
			stratumStart = time.Now()
		}
		perPred := make(map[string]*relation.Relation)
		recursive := false
		for _, ri := range byStratum[s] {
			if e.strat.Recursive[e.prog.Rules[ri].Head.Pred] {
				recursive = true
				break
			}
		}
		if recursive {
			if err := e.applyRecursiveStratum(s, byStratum[s], cascade, pendingT, perPred); err != nil {
				return fail(err)
			}
		} else {
			for _, ri := range byStratum[s] {
				if err := e.applyRule(ri, cascade, pendingT, perPred); err != nil {
					return fail(err)
				}
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
				return fail(verr)
			}
			fullDeltas[pred] = dp
			e.last.DeltaTuples += dp.Len()
			switch {
			case e.sem == eval.Set:
				// Statement (2): Δ(P) = set(Pν) − set(P) is both what
				// cascades and the externally visible change of a set view.
				cd := setTransitions(stored, dp)
				if cd.Empty() {
					e.last.CascadeStopped++
				} else {
					cascade[pred] = cd
					visible[pred] = cd
				}
			case e.reportSet:
				// Ablation: full duplicate counts cascade, but the view is
				// externally a set — report only set transitions.
				cascade[pred] = dp
				if cd := setTransitions(stored, dp); !cd.Empty() {
					visible[pred] = cd
				}
			default:
				cascade[pred] = dp
				visible[pred] = dp
			}
		}
		if timing {
			d := time.Since(stratumStart)
			e.mStratumSecs.Observe(d)
			if e.tracer != nil {
				e.tracer.StratumDone(s, d)
			}
		}
	}

	// Commit: base deltas, view deltas, group tables. The deltas built
	// here are frozen — nothing writes them again, and a frozen delta is
	// linked into a published version as it is (relation.Versioned.Push).
	// Under duplicate semantics a base delta is the caller's relation,
	// which stays the caller's to reuse.
	e.lastDeltas = make(map[string]*relation.Relation, len(commitBase)+len(fullDeltas))
	for pred, d := range commitBase {
		e.db.Ensure(pred, -1).MergeDelta(d)
		if !d.Empty() {
			if externalSet {
				d.Freeze()
			}
			e.lastDeltas[pred] = d
		}
	}
	for pred, dp := range fullDeltas {
		e.db.Ensure(pred, -1).MergeDelta(dp)
		if !dp.Empty() {
			dp.Freeze()
			e.lastDeltas[pred] = dp
		}
	}
	for key, dt := range pendingT {
		e.gts[key].Commit(dt)
	}
	e.mApplies.Inc()
	e.mDeltaRules.Add(int64(e.last.DeltaRulesEvaluated))
	e.mDeltaTuples.Add(int64(e.last.DeltaTuples))
	e.mCascadeStops.Add(int64(e.last.CascadeStopped))
	if timing {
		d := time.Since(batchStart)
		e.mApplySeconds.Observe(d)
		if e.tracer != nil {
			e.tracer.BatchDone(d, len(visible))
		}
	}
	return visible, nil
}

// applyRule evaluates the delta rules Δ1(r)..Δn(r) of rule ri that have a
// changed subgoal, accumulating Δ(head) into perPred.
func (e *Engine) applyRule(ri int, cascade map[string]*relation.Relation, pendingT map[eval.RuleLit]*relation.Relation, perPred map[string]*relation.Relation) error {
	rule := e.prog.Rules[ri]
	litDelta, err := e.deltaImages(ri, cascade, pendingT)
	if err != nil {
		return err
	}
	changed := false
	for _, d := range litDelta {
		if d != nil {
			changed = true
			break
		}
	}
	if !changed {
		return nil
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
		srcs := e.deltaSources(ri, litDelta, i, cascade, pendingT)
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

// deltaImages computes the per-literal Δ images of rule ri (nil =
// subgoal unchanged), updating group tables as a side effect (it
// memoizes into pendingT).
func (e *Engine) deltaImages(ri int, cascade map[string]*relation.Relation, pendingT map[eval.RuleLit]*relation.Relation) ([]*relation.Relation, error) {
	rule := e.prog.Rules[ri]
	n := len(rule.Body)

	// Per-literal Δ images (nil = subgoal unchanged).
	litDelta := make([]*relation.Relation, n)
	for li, lit := range rule.Body {
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
					return nil, fmt.Errorf("counting: internal error: no group table for rule %d literal %d", ri, li)
				}
				uNew := relation.Overlay(e.old(inner), cd)
				var err error
				dt, err = gt.ApplyDelta(cd, uNew, e.instr)
				if err != nil {
					return nil, err
				}
				pendingT[key] = dt
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
// later positions the old state.
func (e *Engine) deltaSources(ri int, litDelta []*relation.Relation, i int, cascade map[string]*relation.Relation, pendingT map[eval.RuleLit]*relation.Relation) []eval.Source {
	rule := e.prog.Rules[ri]
	n := len(rule.Body)
	srcs := make([]eval.Source, n)
	for j := 0; j < n; j++ {
		if j == i {
			srcs[j] = eval.Source{Rel: litDelta[i], JoinDelta: rule.Body[i].Kind == datalog.LitNegated}
			continue
		}
		srcs[j] = e.sideSource(rule.Body[j], eval.RuleLit{Rule: ri, Lit: j}, cascade, pendingT, j < i)
	}
	return srcs
}

// sideSource resolves a non-Δ-position literal: positions before the Δ
// see the new state, positions after see the old state (Definition 4.1,
// matching Example 4.1's d1/d2 orientation).
func (e *Engine) sideSource(lit datalog.Literal, key eval.RuleLit, cascade map[string]*relation.Relation, pendingT map[eval.RuleLit]*relation.Relation, useNew bool) eval.Source {
	switch lit.Kind {
	case datalog.LitPositive, datalog.LitNegated:
		r := e.old(lit.Atom.Pred)
		if useNew {
			if cd := cascade[lit.Atom.Pred]; cd != nil {
				return eval.Source{Rel: relation.Overlay(r, cd)}
			}
		}
		return eval.Source{Rel: r}
	case datalog.LitAggregate:
		gt := e.gts[key]
		old := gt.Rel()
		if useNew {
			if dt := pendingT[key]; dt != nil {
				return eval.Source{Rel: relation.Overlay(old, dt)}
			}
		}
		return eval.Source{Rel: old}
	default:
		return eval.Source{}
	}
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

// pick returns the rows of d that sign gives a nonzero count, with that
// count. One pass counts them and a second fills the result, which is
// therefore allocated once at its size (relation.NewSized, as DRed's
// signPart is) instead of doubling its way there.
func pick(d *relation.Relation, sign func(relation.Row) int64) *relation.Relation {
	n := 0
	d.Each(func(row relation.Row) {
		if sign(row) != 0 {
			n++
		}
	})
	out := relation.NewSized(d.Arity(), n)
	if n > 0 {
		d.Each(func(row relation.Row) { out.AddRow(row.WithCount(sign(row))) })
	}
	return out
}

// InternalSemantics reports the internal counting regime (Set =
// per-stratum counts, Duplicate = full multiset counts) — what
// explanation queries must use to resolve subgoal relations.
func (e *Engine) InternalSemantics() eval.Semantics { return e.sem }
