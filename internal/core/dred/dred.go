// Package dred is the maintenance engine: it keeps the materialization of
// a stratified view program current under base-relation changes and rule
// edits, walking the strata in order and maintaining each with the
// paper's algorithm for it (Section 7 runs stratum by stratum):
//
//   - A nonrecursive stratum runs the counting algorithm's delta rules
//     (Algorithm 4.1, Definition 4.1) with stratified negation (Definition
//     6.1) and aggregation (Algorithm 6.1). Every tuple it stores carries
//     count(t), its number of derivations, and it produces exactly the
//     tuples whose counts changed (Theorem 4.1). Under set semantics the
//     boxed statement (2) stops the cascade where a relation's set image
//     did not move although its counts did (Section 5.1).
//   - A recursive stratum runs Delete-and-Rederive, in three steps:
//     1. Overestimate: a semi-naive fixpoint of δ⁻-rules deletes every
//     tuple that has *any* derivation using a deleted tuple, evaluating
//     the non-Δ subgoals over the old (pre-deletion) relations.
//     2. Rederive: δ⁺(p) :- δ⁻(p) & s1ν & … & snν puts back overestimated
//     tuples that still have a derivation in the new state, iterated to
//     fixpoint.
//     3. Insert: a semi-naive fixpoint propagates insertions over the new
//     state.
//     It stores every tuple once, and the new materialization contains t
//     iff t has a derivation in the updated database (Theorem 7.1).
//
// Every stratum reads the strata below it through one signed Δ cascade —
// set transitions under set semantics — and commits its exact count Δ, so
// the stored state is always what a from-scratch evaluation computes.
// Config.Algorithm forces one algorithm on every stratum for the paper's
// comparisons; forced counting also maintains recursive strata under
// duplicate semantics when AllowRecursion is set ([GKM92], Section 8).
//
// AddRule/RemoveRule maintain the views across changes to their
// definition: the derivations a rule contributes propagate exactly like
// tuple-level changes (Section 7's rule insertion and deletion).
package dred

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/relation"
	"ivm/internal/strata"
)

// Algorithm is what maintains a stratum.
type Algorithm int

const (
	// DRed maintains every stratum by Delete-and-Rederive (set semantics).
	DRed Algorithm = iota
	// Counting maintains every stratum by counting; a recursive stratum
	// needs AllowRecursion and duplicate semantics.
	Counting
	// PerStratum maintains nonrecursive strata by counting and recursive
	// ones by DRed — the paper's pairing.
	PerStratum
)

// ErrRecursive is returned when forced counting is given a recursive
// stratum without AllowRecursion: the paper proposes counting for
// nonrecursive views only (recursive counts can be infinite).
var ErrRecursive = fmt.Errorf("counting: program is recursive; use dred.Engine (counting may not terminate on recursive views)")

// Stats describes the work of the most recent maintenance operation:
// counting strata fill the first three counters, DRed strata the rest.
type Stats struct {
	// DeltaRulesEvaluated counts Δi(r) evaluations performed.
	DeltaRulesEvaluated int
	// DeltaTuples counts tuples (with count changes) produced across the
	// derived relations of counting strata.
	DeltaTuples int
	// CascadeStopped counts derived relations whose counts changed but
	// whose set image did not, so statement (2) suppressed propagation.
	CascadeStopped int
	// Overestimated counts tuples placed in δ⁻ overestimates (step 1).
	Overestimated int
	// Rederived counts overestimated tuples put back in step 2.
	Rederived int
	// Inserted counts tuples added by step 3.
	Inserted int
	// RuleFirings counts DRed rule evaluations, all steps and strata.
	RuleFirings int
	// FixpointRounds counts the semi-naive rounds of steps 1–3 across
	// all DRed strata.
	FixpointRounds int
}

// Config selects the engine's algorithm, semantics and hooks.
type Config struct {
	// Algorithm is what maintains the strata: DRed (the zero value) or
	// Counting on every stratum, or each stratum by its recursion.
	Algorithm Algorithm
	// Semantics is the external view semantics (set or duplicate). A DRed
	// stratum needs set semantics.
	Semantics eval.Semantics
	// DisableSetOpt turns off statement (2) of Algorithm 4.1 (Section
	// 5.1) under forced counting, E3's ablation: a set view then keeps
	// full duplicate counts, and every count change cascades.
	DisableSetOpt bool
	// AllowRecursion lets forced counting maintain recursive strata under
	// duplicate semantics ([GKM92], Section 8): count(t) is the number of
	// derivation trees, and materialization and maintenance fail with
	// ErrCountsDiverge/ErrDiverged when it is infinite.
	AllowRecursion bool
	// MaxIterations bounds recursive count fixpoints (0 = default).
	MaxIterations int
	// Metrics, when non-nil, receives the engine's counters and timing
	// histograms (counting_* from counting strata, dred_* from DRed
	// strata, eval_* and planner_* series). Nil disables collection.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives per-operation trace events. Nil
	// costs a single pointer check per event site.
	Tracer metrics.Tracer
}

// kind is the algorithm one stratum runs.
type kind uint8

const (
	flat      kind = iota // counting's delta rules, one pass
	recounted             // counting's counted delta fixpoint
	rederived             // DRed's three steps
)

// regime is what maintains each stratum of a program: kinds[s] is the
// algorithm of stratum s; counted holds the derived predicates of counting
// strata, whose stored counts may exceed 1; hasCount/hasDRed say which
// algorithms the program runs.
type regime struct {
	kinds             []kind
	counted           map[string]bool
	hasCount, hasDRed bool
}

// Engine maintains the materialization of a view program.
type Engine struct {
	prog  *datalog.Program
	strat *strata.Stratification
	alg   Algorithm
	regime

	// sem is the internal counting regime: Set means per-stratum counts
	// with statement (2); Duplicate means full multiset counts. reportSet
	// marks a set view kept under Duplicate (DisableSetOpt): its reported
	// changes are collapsed to set transitions.
	sem       eval.Semantics
	reportSet bool
	// recursion: whether forced counting maintains recursive strata
	// (counted delta fixpoints), and their iteration budget.
	allowRecursion bool
	maxIter        int

	db *eval.DB
	// gts holds the group tables of aggregate subgoals, built over the
	// committed state the first time a literal needs one.
	gts map[eval.RuleLit]*eval.GroupTable

	// last holds the work counters of the most recent operation; callers
	// sharing the engine across goroutines must serialize maintenance
	// against Stats (ivm.Views copies it onto each version it publishes).
	last Stats
	// lastDeltas holds, per predicate, the exact signed count delta the
	// most recent operation merged into stored content — wider than its
	// visible changes where statement (2) stopped a cascade.
	lastDeltas map[string]*relation.Relation

	// planner caches cost-based δ-rule plans. Rule edits Reset it: rule
	// indices shift with the program.
	planner *eval.Planner

	// aux[ri] is rule ri's rederivation rule δ⁺(p) :- δ⁻(p) & body, built
	// once per installed program; a head with expressions has none (an
	// empty Body).
	aux []datalog.Rule
	// srcs is the one source list a DRed evaluation fills at a time; it is
	// cleared after each, so it holds no relation between evaluations.
	srcs []eval.Source

	// tracer and the metrics registry, both nil-safe. The counting_* and
	// dred_* series are resolved by install for the algorithms the
	// program runs (nil instruments record nothing).
	tracer metrics.Tracer
	reg    *metrics.Registry
	instr  *eval.Instruments
	mCount countingInstruments
	mDRed  dredInstruments
}

// countingInstruments are the series counting strata emit.
type countingInstruments struct {
	applies, deltaRules, deltaTuples, cascadeStops *metrics.Counter
	applySecs, stratumSecs                         *metrics.Histogram
}

// dredInstruments are the series DRed strata emit.
type dredInstruments struct {
	ops, overestimated, rederived, inserted, ruleFirings, fixpointRounds *metrics.Counter
	applySecs                                                            *metrics.Histogram
	stepSecs                                                             [3]*metrics.Histogram
}

// Stats returns the work counters of the most recent maintenance
// operation (Apply, AddRule, or RemoveRule), as a Stats.
func (e *Engine) Stats() any { return e.last }

// CommittedDeltas returns, per predicate, the exact signed count delta
// the most recent operation merged into its stored relation (base and
// derived, including count-only moves that statement (2) kept from
// cascading). The relations are not mutated after the operation returns.
func (e *Engine) CommittedDeltas() map[string]*relation.Relation { return e.lastDeltas }

// Fold merges deltas — the CommittedDeltas of the engine that ran the
// commit — into stored content without evaluating a rule: the state after
// the commit is stored ⊎ deltas (Theorems 4.1, 7.1). The caller has
// checked that no count falls below zero. Group tables are dropped, and
// the next operation builds the ones it needs.
func (e *Engine) Fold(deltas map[string]*relation.Relation) {
	e.db.MergeDeltas(deltas)
	e.lastDeltas, e.last = deltas, Stats{}
	e.gts = make(map[eval.RuleLit]*eval.GroupTable)
}

// New materializes prog over base (cloned; multiplicities collapse to
// sets) and maintains every stratum by DRed.
func New(prog *datalog.Program, base *eval.DB) (*Engine, error) {
	return NewWithConfig(prog, base, Config{})
}

// NewWithConfig validates and stratifies prog, materializes its views over
// the base relations in base (which is cloned; the engine owns its
// storage), and returns a ready engine.
func NewWithConfig(prog *datalog.Program, base *eval.DB, cfg Config) (*Engine, error) {
	e := &Engine{
		alg: cfg.Algorithm, sem: cfg.Semantics,
		allowRecursion: cfg.AllowRecursion && cfg.Algorithm == Counting, maxIter: cfg.MaxIterations,
		tracer: cfg.Tracer, reg: cfg.Metrics, instr: eval.NewInstruments(cfg.Metrics),
		planner: eval.NewPlanner(cfg.Metrics),
	}
	if e.sem == eval.Set && cfg.DisableSetOpt && e.alg == Counting {
		// Without statement (2) a set view needs full duplicate counts.
		e.sem, e.reportSet = eval.Duplicate, true
	}
	if cfg.Semantics == eval.Set {
		// Under set semantics base relations are sets: multiplicities in
		// the input collapse.
		e.db = eval.NewDB()
		for _, pred := range base.Preds() {
			e.db.Put(pred, base.Get(pred).ToSet())
		}
	} else {
		e.db = base.Clone()
	}
	if _, err := e.Install(prog); err != nil {
		return nil, err
	}
	gts, err := e.evaluate(e.db)
	if err != nil {
		return nil, err
	}
	e.gts = gts
	return e, nil
}

// evaluate materializes the installed program's views into db over its
// base relations, as the strata's algorithms store them, and returns the
// group tables it built.
func (e *Engine) evaluate(db *eval.DB) (map[eval.RuleLit]*eval.GroupTable, error) {
	ev := eval.NewEvaluator(e.prog, e.strat, e.sem)
	ev.RecursiveCounts = e.allowRecursion
	ev.MaxIterations = e.maxIter
	ev.Instr = e.instr
	ev.Planner = e.planner
	if err := ev.Evaluate(db); err != nil {
		return nil, err
	}
	if e.alg == DRed {
		// The evaluator counts the derivations of nonrecursive strata:
		// DRed keeps their set images.
		for pred := range e.prog.DerivedPreds() {
			db.Put(pred, db.Get(pred).ToSet())
		}
	}
	return ev.GroupTables, nil
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
// Derived tuples carry their stored counts; treat it as read-only.
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

// Regime returns what maintains the installed program's strata: Counting
// or DRed when one algorithm maintains every one, PerStratum when both run
// (a mixed program).
func (e *Engine) Regime() Algorithm {
	switch {
	case !e.hasDRed:
		return Counting
	case !e.hasCount:
		return DRed
	}
	return PerStratum
}

// name is the engine's regime as a tracer's batch events name it.
func (e *Engine) name() string {
	return [...]string{DRed: "dred", Counting: "counting", PerStratum: "counting+dred"}[e.Regime()]
}

// old returns pred's committed state as a rule body reads it: under set
// semantics the set image of a counting stratum's relation (Section 5.1's
// per-stratum counts), every other relation — a set then — as stored.
func (e *Engine) old(pred string) relation.Reader {
	r := e.db.Ensure(pred, -1)
	if e.sem == eval.Set && e.counted[pred] {
		return relation.SetImage(r)
	}
	return r
}

// groupTable returns the group table of an aggregate literal, building it
// over the committed state if the engine has none.
func (e *Engine) groupTable(key eval.RuleLit, g *datalog.Aggregate) (*eval.GroupTable, error) {
	if gt, ok := e.gts[key]; ok {
		return gt, nil
	}
	gt, err := eval.BuildGroupTable(g, e.old(g.Inner.Pred))
	if err != nil {
		return nil, err
	}
	e.gts[key] = gt
	return gt, nil
}

// Apply maintains every view given a batch of base-relation changes
// (positive counts insert, negative delete — Section 3's Δ notation).
// It returns the externally visible change of each derived relation that
// moved: under duplicate semantics the full count deltas, under set
// semantics the set transitions (tuples entering/leaving the view with
// counts ±1).
//
// Deleted base tuples must be a subset of the stored base relations
// (Lemma 4.1's precondition); under duplicate semantics a deletion must
// not exceed the stored multiplicity. Violations are rejected before any
// state changes.
func (e *Engine) Apply(baseDelta map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	e.last = Stats{}
	if e.tracer != nil {
		e.tracer.BatchStart(e.name(), len(baseDelta))
	}
	o := e.newOp()
	e.begin(o)
	derived := e.prog.DerivedPreds()
	for pred, d := range baseDelta {
		if derived[pred] {
			return nil, fmt.Errorf("engine: delta for derived predicate %s (only base relations may change)", pred)
		}
		stored := e.db.Ensure(pred, d.Arity())
		if stored.Arity() >= 0 && d.Arity() >= 0 && stored.Arity() != d.Arity() {
			return nil, fmt.Errorf("engine: delta for %s has arity %d, relation has arity %d", pred, d.Arity(), stored.Arity())
		}
		var verr error
		cd := d // under duplicate semantics the caller's, which stays theirs to reuse
		if e.sem == eval.Set || e.reportSet {
			// Base relations are sets: inserting a present tuple is a no-op.
			cd = pick(d, func(row relation.Row) int64 {
				has := stored.Has(row.Tuple)
				switch {
				case row.Count > 0 && !has:
					return 1
				case row.Count < 0 && has:
					return -1
				case row.Count < 0 && verr == nil:
					verr = fmt.Errorf("engine: deletion of absent tuple %s%s", pred, row.Tuple)
				}
				return 0
			})
			// Linked into the version as it is, unless only DRed reads it:
			// the overestimate indexes it, and a copy leaves those behind.
			if e.hasCount {
				cd.Freeze()
			}
		} else {
			d.Each(func(row relation.Row) {
				if verr == nil && stored.Count(row.Tuple)+row.Count < 0 {
					verr = fmt.Errorf("engine: deletion of %s%s exceeds its stored count %d", pred, row.Tuple, stored.Count(row.Tuple))
				}
			})
		}
		if verr != nil {
			return nil, verr
		}
		o.commit[pred] = cd
		if !cd.Empty() {
			o.cascade[pred] = cd
		}
	}
	return e.propagate(o)
}

// AddRule extends the view definition with a new rule and incrementally
// folds its derivations into the materialization. The rule's head must be
// an existing derived predicate or a fresh one: turning a base relation
// with stored facts into a derived predicate is rejected, since derived
// relations are defined entirely by their rules (a rematerialization
// would drop the facts).
func (e *Engine) AddRule(r datalog.Rule) (map[string]*relation.Relation, error) {
	if stored := e.db.Get(r.Head.Pred); stored != nil && !stored.Empty() && !e.prog.DerivedPreds()[r.Head.Pred] {
		return nil, fmt.Errorf("engine: cannot add a rule for %s: it is a base relation with stored facts", r.Head.Pred)
	}
	prog := e.prog.Clone()
	prog.Rules = append(prog.Rules, r)
	return e.edit(prog, r, 1, maps.Clone(e.gts))
}

// RemoveRule deletes rule index ri from the view definition and
// incrementally removes the derivations only it supported.
func (e *Engine) RemoveRule(ri int) (map[string]*relation.Relation, error) {
	if ri < 0 || ri >= len(e.prog.Rules) {
		return nil, fmt.Errorf("engine: rule index %d out of range", ri)
	}
	prog := e.prog.Clone()
	prog.Rules = slices.Delete(prog.Rules, ri, ri+1)
	// Group tables are keyed by rule index: the removed rule's go, and
	// those of the rules after it move down one.
	gts := make(map[eval.RuleLit]*eval.GroupTable, len(e.gts))
	for key, gt := range e.gts {
		switch {
		case key.Rule < ri:
			gts[key] = gt
		case key.Rule > ri:
			gts[eval.RuleLit{Rule: key.Rule - 1, Lit: key.Lit}] = gt
		}
	}
	return e.edit(prog, e.prog.Rules[ri], -1, gts)
}

// edit installs prog, which adds rule (sign +1) or removes it (−1), and
// maintains the views by the rule's derivations (seed), keeping the group
// tables gts (the engine's, keyed by prog's rule indices) — or, when the
// edit moves a predicate between a counting stratum and a DRed one, whose
// stored counts differ, or touches a counted recursive stratum, by
// evaluating the program afresh. A rejected edit leaves the engine's
// program as it was, as a rejected Apply leaves its stored rows.
func (e *Engine) edit(prog *datalog.Program, rule datalog.Rule, sign int64, gts map[eval.RuleLit]*eval.GroupTable) (map[string]*relation.Relation, error) {
	e.last = Stats{}
	if e.tracer != nil {
		e.tracer.BatchStart(e.name()+map[int64]string{1: ":add-rule", -1: ":remove-rule"}[sign], 1)
	}
	was := *e
	undo, err := e.Install(prog)
	if err != nil {
		return nil, err
	}
	afresh := slices.Contains(was.kinds, recounted) || slices.Contains(e.kinds, recounted)
	derived := prog.DerivedPreds()
	for pred := range was.prog.DerivedPreds() {
		afresh = afresh || derived[pred] && was.counted[pred] != e.counted[pred]
	}
	var changes map[string]*relation.Relation
	if afresh {
		changes, err = e.reevaluate(was.prog)
	} else {
		e.gts = gts
		changes, err = e.seed(rule, sign)
	}
	if err != nil {
		undo()
	}
	return changes, err
}

// seed maintains an edit of rule, which the installed program has gained
// (sign +1) or lost (−1): its derivations over the committed state seed
// its head's stratum — with their counts on a counting stratum, on a DRed
// one as the insertions the view lacks or the deletion candidates it holds
// (step 2 rederives those other rules support) — and propagate like any
// change. A head the removal leaves underived drains like a base relation.
func (e *Engine) seed(rule datalog.Rule, sign int64) (map[string]*relation.Relation, error) {
	d, err := e.ruleDerivations(rule)
	if err != nil {
		return nil, err
	}
	o, head := e.newOp(), rule.Head.Pred
	e.begin(o)
	switch stored := e.db.Ensure(head, d.Arity()); {
	case sign < 0 && !e.prog.DerivedPreds()[head]:
		d = stored.Negate()
		if o.commit[head] = d; e.sem == eval.Set {
			d = setTransitions(stored, d)
		}
		if !d.Empty() {
			o.cascade[head] = d
		}
	case e.kinds[e.strat.SN[head]] != rederived:
		if sign < 0 {
			d = d.Negate()
		}
		o.seeds = map[string]*relation.Relation{head: d}
	default:
		o.seeds = map[string]*relation.Relation{head: pick(d, func(row relation.Row) int64 {
			if row.Count > 0 && stored.Has(row.Tuple) == (sign < 0) {
				return sign
			}
			return 0
		})}
	}
	return e.propagate(o)
}

// regimeOf returns what maintains each stratum of prog — or why no
// algorithm of the engine's can maintain one. Forced, an algorithm is the
// program's even where it derives nothing; per stratum, a program that
// derives nothing counts.
func (e *Engine) regimeOf(prog *datalog.Program, st *strata.Stratification) (regime, error) {
	r := regime{kinds: make([]kind, st.MaxStratum+1), counted: make(map[string]bool)}
	for s, rules := range st.RulesByStratum(prog) {
		recursive := slices.ContainsFunc(rules, func(ri int) bool { return st.Recursive[prog.Rules[ri].Head.Pred] })
		switch {
		case e.alg == DRed || e.alg == PerStratum && recursive:
			if e.sem != eval.Set && len(rules) > 0 {
				return regime{}, fmt.Errorf("engine: stratum %d needs DRed, which maintains set semantics only (duplicate counts of a recursive view may be infinite)", s)
			}
			r.kinds[s] = rederived
		case recursive && !e.allowRecursion:
			return regime{}, ErrRecursive
		case recursive && e.Semantics() != eval.Duplicate:
			return regime{}, fmt.Errorf("counting: recursive counting requires duplicate semantics (for set semantics use the DRed engine)")
		case recursive:
			r.kinds[s] = recounted
		}
		if r.kinds[s] == rederived {
			r.hasDRed = r.hasDRed || len(rules) > 0
			continue
		}
		r.hasCount = r.hasCount || len(rules) > 0
		for _, ri := range rules {
			r.counted[prog.Rules[ri].Head.Pred] = true
		}
	}
	r.hasCount = r.hasCount || e.alg == Counting || e.alg == PerStratum && !r.hasDRed
	r.hasDRed = r.hasDRed || e.alg == DRed
	return r, nil
}

// Install validates and stratifies prog and makes it the engine's, with
// its rederivation rules and no rule evaluated — the first half of folding
// a rule edit's commit record (Fold merges its Δ); group tables and cached
// plans, keyed by rule index, start over. A relation prog reads at another
// arity than its rows' refuses it; an empty one takes prog's. undo puts
// the previous program, and the relations it replaced, back.
func (e *Engine) Install(prog *datalog.Program) (undo func(), err error) {
	if err := datalog.Validate(prog); err != nil {
		return nil, err
	}
	st, err := strata.Compute(prog)
	if err != nil {
		return nil, err
	}
	reg, err := e.regimeOf(prog, st)
	if err != nil {
		return nil, err
	}
	reset := make(map[string]*relation.Relation)
	for _, rule := range prog.Rules {
		for i := -1; i < len(rule.Body); i++ {
			atom := rule.Head
			if i >= 0 {
				if atom = rule.Body[i].Atom; rule.Body[i].Kind == datalog.LitAggregate {
					atom = rule.Body[i].Agg.Inner
				}
			}
			r := e.db.Get(atom.Pred)
			switch {
			case atom.Pred == "" || r == nil || r.Arity() < 0 || r.Arity() == len(atom.Args):
			case !r.Empty():
				for pred, r := range reset {
					e.db.Put(pred, r)
				}
				return nil, fmt.Errorf("engine: the program reads %s with arity %d, and it holds rows of arity %d", atom.Pred, len(atom.Args), r.Arity())
			default:
				reset[atom.Pred] = r
				e.db.Put(atom.Pred, relation.New(len(atom.Args)))
			}
		}
	}
	was := *e
	e.prog, e.strat, e.regime, e.gts = prog, st, reg, make(map[eval.RuleLit]*eval.GroupTable)
	if r := e.reg; e.hasCount {
		e.mCount = countingInstruments{
			r.Counter("counting_applies_total"), r.Counter("counting_delta_rules_total"),
			r.Counter("counting_delta_tuples_total"), r.Counter("counting_cascade_stops_total"),
			r.Histogram("counting_apply_seconds"), r.Histogram("counting_stratum_seconds")}
	}
	if r := e.reg; e.hasDRed {
		e.mDRed = dredInstruments{
			r.Counter("dred_ops_total"), r.Counter("dred_overestimated_total"), r.Counter("dred_rederived_total"),
			r.Counter("dred_inserted_total"), r.Counter("dred_rule_firings_total"), r.Counter("dred_fixpoint_rounds_total"),
			r.Histogram("dred_apply_seconds"),
			[3]*metrics.Histogram{r.Histogram("dred_step1_seconds"), r.Histogram("dred_step2_seconds"), r.Histogram("dred_step3_seconds")}}
	}
	e.aux = make([]datalog.Rule, len(prog.Rules))
	for ri, r := range prog.Rules {
		if !slices.ContainsFunc(r.Head.Args, isArith) {
			e.aux[ri] = datalog.Rule{Head: r.Head, Body: append([]datalog.Literal{{Kind: datalog.LitPositive, Atom: r.Head}}, r.Body...)}
		}
	}
	e.planner.Reset()
	return func() {
		*e = was
		for pred, r := range reset {
			e.db.Put(pred, r)
		}
		e.planner.Reset()
	}, nil
}

// reevaluate evaluates the installed program afresh over the stored base
// relations and commits, as one operation, the exact difference against
// the stored state of every predicate prev or the program derives.
func (e *Engine) reevaluate(prev *datalog.Program) (map[string]*relation.Relation, error) {
	derived, wasDerived := e.prog.DerivedPreds(), prev.DerivedPreds()
	fresh := eval.NewDB()
	for _, pred := range e.db.Preds() {
		if !derived[pred] && !wasDerived[pred] {
			fresh.Put(pred, e.db.Get(pred))
		}
	}
	if _, err := e.evaluate(fresh); err != nil {
		return nil, err
	}
	o := e.newOp()
	e.begin(o)
	maps.Copy(wasDerived, derived)
	for pred := range wasDerived {
		now := fresh.Get(pred)
		if now == nil {
			now = relation.New(e.db.Ensure(pred, -1).Arity())
		}
		stored := e.db.Ensure(pred, now.Arity())
		d := relation.Diff(stored, now)
		o.commit[pred] = d
		if e.sem == eval.Set {
			d = setTransitions(stored, d)
		}
		if derived[pred] && !d.Empty() {
			o.cascade[pred] = d
		}
	}
	return e.commit(o), nil
}

func isArith(t datalog.Term) bool {
	_, ok := t.(datalog.Arith)
	return ok
}

// ruleDerivations evaluates rule over the committed state — lower strata
// through their set images under set semantics — and returns its head
// tuples with their derivation counts: the seed of a rule edit.
func (e *Engine) ruleDerivations(rule datalog.Rule) (*relation.Relation, error) {
	out := relation.New(len(rule.Head.Args))
	out.BorrowFrom(e.db.Ensure(rule.Head.Pred, len(rule.Head.Args)), nil)
	srcs, err := eval.SourcesAt(rule, -1, e.db, e.sem, nil)
	if err == nil {
		err = eval.EvalRule(rule, srcs, -1, out, e.instr)
	}
	return out, err
}

// commit merges the operation's exact deltas into storage and commits the
// group tables it moved. It returns the visible change of each derived
// relation that moved: its cascade, or under DisableSetOpt the set
// transitions of its counts.
func (e *Engine) commit(o *op) map[string]*relation.Relation {
	visible := make(map[string]*relation.Relation)
	for pred, c := range o.cascade {
		if e.strat.SN[pred] == 0 { // a base relation
			continue
		}
		if e.reportSet {
			if c = setTransitions(e.db.Ensure(pred, -1), c); c.Empty() {
				continue
			}
		}
		visible[pred] = c
	}
	e.lastDeltas = make(map[string]*relation.Relation, len(o.commit))
	for pred, d := range o.commit {
		e.db.Ensure(pred, d.Arity()).MergeDelta(d)
		if !d.Empty() {
			e.lastDeltas[pred] = d
		}
	}
	for key, dt := range o.pendingT {
		e.gts[key].Commit(dt)
	}
	var d time.Duration
	if o.timing {
		d = time.Since(o.start)
	}
	if m := e.mCount; e.hasCount {
		m.applies.Inc()
		m.deltaRules.Add(int64(e.last.DeltaRulesEvaluated))
		m.deltaTuples.Add(int64(e.last.DeltaTuples))
		m.cascadeStops.Add(int64(e.last.CascadeStopped))
		m.applySecs.Observe(d)
	}
	if m := e.mDRed; e.hasDRed {
		m.ops.Inc()
		m.overestimated.Add(int64(e.last.Overestimated))
		m.rederived.Add(int64(e.last.Rederived))
		m.inserted.Add(int64(e.last.Inserted))
		m.ruleFirings.Add(int64(e.last.RuleFirings))
		m.fixpointRounds.Add(int64(e.last.FixpointRounds))
		m.applySecs.Observe(d)
	}
	if e.tracer != nil {
		e.tracer.BatchDone(d, len(visible))
	}
	return visible
}

// pick returns the rows of d that sign gives a nonzero count, with that
// count. One pass counts them and a second fills the result, which is
// therefore allocated once at its size (relation.NewSized) instead of
// doubling its way there.
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

// signPart returns the tuples r holds with a negative count (neg) or a
// positive one, as a set sized exactly (see relation.NewSized).
func signPart(r *relation.Relation, neg bool) *relation.Relation {
	n := 0
	r.Each(func(row relation.Row) {
		if (row.Count < 0) == neg {
			n++
		}
	})
	out := relation.NewSized(r.Arity(), n)
	r.Each(func(row relation.Row) {
		if (row.Count < 0) == neg {
			out.AddRow(row.WithCount(1))
		}
	})
	return out
}
