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
// comparisons; forced counting refuses a recursive stratum. Recompute is
// the point they are measured against (Section 1): it stores what the
// paper's pairing stores and maintains nothing, evaluating every stratum
// afresh and committing the difference.
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
	// Counting maintains every stratum by counting, and refuses a
	// recursive one.
	Counting
	// PerStratum maintains nonrecursive strata by counting and recursive
	// ones by DRed — the paper's pairing.
	PerStratum
	// Recompute re-evaluates every view from scratch on each operation
	// and commits the difference: the non-incremental baseline.
	Recompute
)

// ErrRecursive is returned when forced counting is given a recursive
// stratum: the paper proposes counting for nonrecursive views only
// (recursive counts can be infinite, Section 8).
var ErrRecursive = fmt.Errorf("counting: program is recursive; maintain it with WithStrategy(DRed) or Auto (counting may not terminate on recursive views)")

// Stats describes the work of the most recent maintenance operation:
// counting strata fill the first three counters, DRed strata the rest.
type Stats struct {
	// DeltaRulesEvaluated counts Δi(r) evaluations performed.
	DeltaRulesEvaluated int `json:"delta_rules_evaluated"`
	// DeltaTuples counts tuples (with count changes) produced across the
	// derived relations of counting strata.
	DeltaTuples int `json:"delta_tuples"`
	// CascadeStopped counts derived relations whose counts changed but
	// whose set image did not, so statement (2) suppressed propagation.
	CascadeStopped int `json:"cascade_stopped"`
	// Overestimated counts tuples placed in δ⁻ overestimates (step 1).
	Overestimated int `json:"overestimated"`
	// Rederived counts overestimated tuples put back in step 2.
	Rederived int `json:"rederived"`
	// Inserted counts tuples added by step 3.
	Inserted int `json:"inserted"`
	// RuleFirings counts DRed rule evaluations, all steps and strata.
	RuleFirings int `json:"rule_firings"`
	// FixpointRounds counts the semi-naive rounds of steps 1–3 across
	// all DRed strata.
	FixpointRounds int `json:"fixpoint_rounds"`
}

// StratumTrace is one stratum's part of a maintenance operation: its number
// (1 for the lowest derived one), what maintained it ("counting", "dred",
// or "recompute" where the operation evaluated the program afresh), its
// wall time with DRed's steps 1–3 within it, and the rows of the exact
// count Δ it committed. A stratum maintained on an engine that nothing
// observes (no metrics, no tracer) reads no clock: its times are zero.
type StratumTrace struct {
	Stratum   int              `json:"stratum"`
	Algorithm string           `json:"algorithm"`
	Wall      time.Duration    `json:"wall_ns"`
	Steps     [3]time.Duration `json:"dred_steps_ns"`
	Delta     int              `json:"delta_rows"`
}

// Config selects the engine's algorithm, semantics and hooks.
type Config struct {
	// Algorithm is what maintains the strata: DRed (the zero value) or
	// Counting on every stratum, each stratum by its recursion, or none
	// (Recompute).
	Algorithm Algorithm
	// Semantics is the external view semantics (set or duplicate). A DRed
	// stratum needs set semantics.
	Semantics eval.Semantics
	// Metrics, when non-nil, receives the engine's counters and timing
	// histograms (counting_* from counting strata, dred_* from DRed
	// strata, eval_* and planner_* series).
	// Nil disables collection.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives per-stratum and per-rule trace
	// events. Nil costs a single pointer check per event site.
	Tracer metrics.Tracer
}

// kind is the algorithm one stratum runs.
type kind uint8

const (
	flat      kind = iota // counting's delta rules, one pass
	rederived             // DRed's three steps
)

// regime is what maintains each stratum of a program: kinds[s] is the
// algorithm of stratum s; counted holds the derived predicates of counting
// strata, whose stored counts may exceed 1; hasCount/hasDRed say which
// algorithms the program runs (neither under Recompute, which stores what
// they would).
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

	// sem is the counting regime: Set means per-stratum counts with
	// statement (2); Duplicate means full multiset counts.
	sem eval.Semantics

	db store
	// gts holds the group tables of aggregate subgoals, built over the
	// committed state the first time a literal needs one.
	gts map[eval.RuleLit]*eval.GroupTable

	// last holds the work counters of the most recent operation; callers
	// sharing the engine across goroutines must serialize maintenance
	// against Stats (ivm.Views copies it onto each version it publishes).
	last Stats
	// strata holds the most recent operation's StratumTraces, in order, in
	// a slice of its own: a published one is never written again.
	strata []StratumTrace
	// lastDeltas holds, per predicate, the exact signed count delta the
	// most recent operation merged into stored content — wider than its
	// visible changes where statement (2) stopped a cascade.
	lastDeltas map[string]*relation.Relation
	// work holds, per head of a counting stratum, the table its Δ(head) is
	// built in (counting.go): each apply empties it, and publishes a copy.
	work map[string]*relation.Relation
	// olds is counts' slice, kept while within keptCounts rows.
	olds []int64
	// over holds, per predicate of a DRed stratum, its place list: the
	// places its steps 1 and 2 admitted, emptied when the stratum ends;
	// mark is their output (propagate.go).
	over map[string]*placeList
	mark placer

	// planner caches cost-based δ-rule plans. Rule edits Reset it: rule
	// indices shift with the program.
	planner *eval.Planner

	// aux[ri] is rule ri's rederivation rule δ⁺(p) :- δ⁻(p) & body, built
	// once per installed program; a head with expressions has none (an
	// empty Body).
	aux []datalog.Rule
	// srcs is the one source list a δ-rule evaluation fills at a time; it
	// is cleared after each, so it holds no relation between evaluations.
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
	applySecs                                      *metrics.Histogram
}

// dredInstruments are the series DRed strata emit.
type dredInstruments struct {
	ops, overestimated, rederived, inserted, ruleFirings, fixpointRounds *metrics.Counter
	applySecs                                                            *metrics.Histogram
	stepSecs                                                             [3]*metrics.Histogram
}

// Stats returns the work counters of the most recent maintenance
// operation (Apply, AddRule, or RemoveRule); Recompute keeps none.
func (e *Engine) Stats() Stats { return e.last }

// Strata returns the most recent operation's per-stratum records, one for
// each stratum with rules, in stratum order; none after a Fold.
func (e *Engine) Strata() []StratumTrace { return e.strata }

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
	for pred, d := range deltas {
		e.db.Ensure(pred, d.Arity()).MergeDelta(d)
	}
	e.lastDeltas, e.last, e.strata = deltas, Stats{}, nil
	e.gts = make(map[eval.RuleLit]*eval.GroupTable)
}

// New materializes prog over base (cloned; multiplicities collapse to
// sets) and maintains every stratum by DRed.
func New(prog *datalog.Program, base *eval.DB) (*Engine, error) {
	return NewWithConfig(prog, base, Config{})
}

// NewWithConfig validates and stratifies prog, materializes its views over
// the base relations in base (which is cloned; the engine owns its
// storage), and returns a ready engine: Load, then maintenance from ∅.
func NewWithConfig(prog *datalog.Program, base *eval.DB, cfg Config) (*Engine, error) {
	db := eval.NewDB()
	for _, pred := range base.Preds() {
		if r := base.Get(pred); cfg.Semantics == eval.Set { // sets: multiplicities collapse
			db.Put(pred, r.ToSet())
		} else {
			db.Put(pred, r.Clone())
		}
	}
	e, err := Load(prog, db, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := e.materialize(); err != nil {
		return nil, err
	}
	return e, nil
}

// store holds the engine's stored relations, base and derived.
type store map[string]*relation.Stored

// storeOf takes db's relations as the engine's: each private until first
// published, or shared as it is if frozen.
func storeOf(db *eval.DB) store {
	s := make(store)
	for _, pred := range db.Preds() {
		s[pred] = relation.Store(db.Get(pred))
	}
	return s
}

// Ensure returns pred's stored relation, made empty with the given arity
// if absent.
func (s store) Ensure(pred string, arity int) *relation.Stored {
	r, ok := s[pred]
	if !ok {
		r = relation.Store(relation.New(arity))
		s[pred] = r
	}
	return r
}

// reader is pred's stored relation as a rule body reads it: an empty one
// of unknown arity if there is none.
func (s store) reader(pred string) relation.Reader {
	if r := s[pred]; r != nil {
		return r
	}
	return relation.New(-1)
}

// Load returns an engine that maintains prog over db, which it owns, taken
// as its stored state: base and derived relations with the counts this
// configuration stores. A frozen relation is shared, not copied: the
// engine's writes go to its net. Nothing is evaluated; group tables are
// built when first needed.
func Load(prog *datalog.Program, db *eval.DB, cfg Config) (*Engine, error) {
	e := &Engine{
		alg: cfg.Algorithm, sem: cfg.Semantics, db: storeOf(db),
		tracer: cfg.Tracer, reg: cfg.Metrics, instr: eval.NewInstruments(cfg.Metrics),
		planner: eval.NewPlanner(cfg.Metrics), work: make(map[string]*relation.Relation), over: make(map[string]*placeList),
	}
	if _, err := e.Install(prog); err != nil {
		return nil, err
	}
	return e, nil
}

// Semantics returns the external view semantics.
func (e *Engine) Semantics() eval.Semantics { return e.sem }

// Program returns the maintained view program.
func (e *Engine) Program() *datalog.Program { return e.prog }

// Relation returns the stored relation (base or derived) for pred, or nil,
// as one relation: the engine's own until it is first published, a copy
// after. Derived tuples carry their stored counts; treat it as read-only.
func (e *Engine) Relation(pred string) *relation.Relation {
	if s := e.db[pred]; s != nil {
		return s.Relation()
	}
	return nil
}

// Stored returns the engine's stored relation for pred, or nil: read it,
// publish it, never write it.
func (e *Engine) Stored(pred string) *relation.Stored { return e.db[pred] }

// Preds returns the predicates the engine stores, sorted.
func (e *Engine) Preds() []string {
	preds := make([]string, 0, len(e.db))
	for pred := range e.db {
		preds = append(preds, pred)
	}
	slices.Sort(preds)
	return preds
}

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
// (a mixed program), Recompute as configured.
func (e *Engine) Regime() Algorithm {
	switch {
	case e.alg == Recompute:
		return Recompute
	case !e.hasDRed:
		return Counting
	case !e.hasCount:
		return DRed
	}
	return PerStratum
}

// old returns pred's committed state as a rule body reads it: under set
// semantics the set image of a counting stratum's relation (Section 5.1's
// per-stratum counts), every other relation — a set then — as stored, and
// one the engine lacks as empty, without storing it.
func (e *Engine) old(pred string) relation.Reader {
	r := e.db.reader(pred)
	if e.sem == eval.Set && e.counted[pred] {
		return relation.SetImage(r)
	}
	return r
}

// groupTable returns the group table of an aggregate literal, building it
// over the committed state if the engine has none. T's rows are tuples
// built, and the heads over T borrow them: they count as heads built.
func (e *Engine) groupTable(key eval.RuleLit, g *datalog.Aggregate) (*eval.GroupTable, error) {
	if gt, ok := e.gts[key]; ok {
		return gt, nil
	}
	gt, err := eval.BuildGroupTable(g, e.old(g.Inner.Pred))
	if err != nil {
		return nil, err
	}
	if e.instr != nil {
		e.instr.HeadsBuilt.Add(int64(gt.Rel().Len()))
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
// state changes. Recompute evaluates the views afresh over the changed
// base instead of maintaining them.
func (e *Engine) Apply(baseDelta map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	e.last, e.strata = Stats{}, nil
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
		if e.sem == eval.Set {
			// Base relations are sets: inserting a present tuple is a no-op.
			cd = e.pick(stored, d, func(row relation.Row, old int64) int64 {
				has := old > 0
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
			// Base's rows lent; linked into the version as it is unless only
			// DRed reads it: the overestimate indexes it, and a copy drops those.
			stored.Lend(cd)
			if e.hasCount {
				cd.Freeze()
			}
		} else {
			for i, old := range e.counts(stored, d) {
				if row := d.At(i); old+row.Count < 0 {
					verr = fmt.Errorf("engine: deletion of %s%s exceeds its stored count %d", pred, row.Tuple, old)
					break
				}
			}
		}
		if verr != nil {
			return nil, verr
		}
		o.commit[pred] = cd
		if !cd.Empty() {
			o.cascade[pred] = cd
		}
	}
	if e.alg == Recompute {
		return e.reevaluate(o, e.prog)
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
	if stored := e.db[r.Head.Pred]; stored != nil && !stored.Empty() && !e.prog.DerivedPreds()[r.Head.Pred] {
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
// tables gts (the engine's, keyed by prog's rule indices) — or, under
// Recompute or when the edit moves a predicate between a counting stratum
// and a DRed one, whose stored counts differ, by evaluating the program
// afresh. A rejected edit
// leaves the engine's program as it was, as a rejected Apply leaves its
// stored rows.
func (e *Engine) edit(prog *datalog.Program, rule datalog.Rule, sign int64, gts map[eval.RuleLit]*eval.GroupTable) (map[string]*relation.Relation, error) {
	e.last, e.strata = Stats{}, nil
	was := *e
	undo, err := e.Install(prog)
	if err != nil {
		return nil, err
	}
	derived, afresh := prog.DerivedPreds(), e.alg == Recompute
	for pred := range was.prog.DerivedPreds() {
		afresh = afresh || derived[pred] && was.counted[pred] != e.counted[pred]
	}
	var changes map[string]*relation.Relation
	if afresh {
		o := e.newOp()
		e.begin(o)
		changes, err = e.reevaluate(o, was.prog)
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
		d = stored.Relation().Negate()
		if o.commit[head] = d; e.sem == eval.Set {
			d = e.pick(stored, d, Flip)
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
		o.seeds = map[string]*relation.Relation{head: e.pick(stored, d, func(row relation.Row, old int64) int64 {
			if row.Count > 0 && (old > 0) == (sign < 0) {
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
		case e.alg == DRed || (e.alg == PerStratum || e.alg == Recompute) && recursive:
			if e.sem != eval.Set && len(rules) > 0 {
				return regime{}, fmt.Errorf("engine: stratum %d needs DRed, which maintains set semantics only (duplicate counts of a recursive view may be infinite)", s)
			}
			r.kinds[s] = rederived
		case recursive:
			return regime{}, ErrRecursive
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
	if e.alg == Recompute {
		r.hasCount, r.hasDRed = false, false
	}
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
	reset := make(map[string]*relation.Stored)
	for _, rule := range prog.Rules {
		for i := -1; i < len(rule.Body); i++ {
			atom := rule.Head
			if i >= 0 {
				if atom = rule.Body[i].Atom; rule.Body[i].Kind == datalog.LitAggregate {
					atom = rule.Body[i].Agg.Inner
				}
			}
			r := e.db[atom.Pred]
			switch {
			case atom.Pred == "" || r == nil || r.Arity() < 0 || r.Arity() == len(atom.Args):
			case !r.Empty():
				maps.Copy(e.db, reset)
				return nil, fmt.Errorf("engine: the program reads %s with arity %d, and it holds rows of arity %d", atom.Pred, len(atom.Args), r.Arity())
			default:
				reset[atom.Pred] = r
				e.db[atom.Pred] = relation.Store(relation.New(len(atom.Args)))
			}
		}
	}
	was := *e
	e.prog, e.strat, e.regime, e.gts = prog, st, reg, make(map[eval.RuleLit]*eval.GroupTable)
	clear(e.work) // a head may be gone, or read at another arity
	if r := e.reg; e.hasCount {
		e.mCount = countingInstruments{
			r.Counter("counting_applies_total"), r.Counter("counting_delta_rules_total"),
			r.Counter("counting_delta_tuples_total"), r.Counter("counting_cascade_stops_total"),
			r.Histogram("counting_apply_seconds")}
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
		maps.Copy(e.db, reset)
		e.planner.Reset()
	}, nil
}

// reevaluate evaluates the installed program afresh over the stored base
// relations, each ⊎ its Δ in o.commit — materialize, on a copy of the
// engine that shares the rest — and commits o with the exact difference
// against the stored state of every predicate prev or the program derives;
// under Recompute the relations it evaluated are stored as they are. A
// refused evaluation has changed nothing.
func (e *Engine) reevaluate(o *op, prev *datalog.Program) (map[string]*relation.Relation, error) {
	derived, wasDerived := e.prog.DerivedPreds(), prev.DerivedPreds()
	fresh := *e
	fresh.db, fresh.gts = make(store), make(map[eval.RuleLit]*eval.GroupTable)
	for pred, s := range e.db {
		if !derived[pred] && !wasDerived[pred] {
			fresh.db[pred] = s
		}
	}
	for pred, d := range o.commit { // a base Δ, its relation ensured by Apply
		r := e.db[pred].Relation().Clone()
		r.MergeDelta(d)
		fresh.db[pred] = relation.Store(r)
	}
	strata, err := fresh.materialize()
	if err != nil {
		return nil, err
	}
	e.strata = strata
	if e.alg == Recompute {
		o.fresh = fresh.db
	}
	maps.Copy(wasDerived, derived)
	for pred := range wasDerived {
		now := fresh.db[pred]
		if now == nil {
			now = relation.Store(relation.New(e.db.Ensure(pred, -1).Arity()))
			fresh.db[pred] = now
		}
		stored := e.db.Ensure(pred, now.Arity())
		d := relation.Diff(stored, now.Relation()) // never published: the table itself
		o.commit[pred] = d
		if e.sem == eval.Set {
			d = e.pick(stored, d, Flip)
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
	srcs, err := eval.SourcesAt(rule, -1, e.db.reader, e.sem, nil)
	if err == nil {
		err = eval.EvalRule(rule, srcs, -1, out, e.instr)
	}
	return out, err
}

// commit merges the operation's exact deltas into storage and commits the
// group tables it moved, counts each stratum's Δ rows into its record, and
// observes the operation's series. It returns the visible change of each
// derived relation that moved: its cascade.
func (e *Engine) commit(o *op) map[string]*relation.Relation {
	visible := make(map[string]*relation.Relation)
	for pred, c := range o.cascade {
		if e.strat.SN[pred] != 0 { // not a base relation
			visible[pred] = c
		}
	}
	e.lastDeltas = make(map[string]*relation.Relation, len(o.commit))
	for pred, d := range o.commit {
		if o.fresh != nil && !d.Empty() {
			e.db[pred] = o.fresh[pred]
		} else {
			e.db.Ensure(pred, d.Arity()).MergeDelta(d)
		}
		if !d.Empty() {
			e.lastDeltas[pred] = d
		}
		if i, ok := slices.BinarySearchFunc(e.strata, e.strat.SN[pred], func(st StratumTrace, s int) int { return st.Stratum - s }); ok {
			e.strata[i].Delta += d.Len()
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
		for _, st := range e.strata {
			if st.Algorithm == "dred" {
				for i, h := range m.stepSecs {
					h.Observe(st.Steps[i])
				}
			}
		}
	}
	return visible
}

// counts returns the count stored holds under the key of each row of d, in
// d's order (relation.Stored.Counts), in the engine's scratch slice: valid
// until the next call.
func (e *Engine) counts(stored *relation.Stored, d *relation.Relation) []int64 {
	olds := stored.Counts(d, e.olds[:0])
	if cap(olds) <= keptCounts { // a bulk apply's is not kept
		e.olds = olds
	}
	return olds
}

// pick returns the rows of d that sign, given a row and the count stored
// holds under its key, gives a nonzero count, with that count: one probe a
// row, and a result made at its size (relation.Relation.Pick).
func (e *Engine) pick(stored *relation.Stored, d *relation.Relation, sign func(row relation.Row, old int64) int64) *relation.Relation {
	olds := e.counts(stored, d)
	return d.Pick(func(p int, _ int64) int64 { return sign(d.At(p), olds[p]) })
}

// keptCounts is the most rows of old counts the engine keeps room for (32 KB).
const keptCounts = 1 << 12

// signPart returns the tuples r holds with a negative count (neg) or a
// positive one, as a set sized exactly (see relation.NewSized).
func signPart(r *relation.Relation, neg bool) *relation.Relation {
	return r.Pick(func(_ int, c int64) int64 {
		if (c < 0) == neg {
			return 1
		}
		return 0
	})
}
