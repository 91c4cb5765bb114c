// Package dred implements the paper's Delete-and-Rederive (DRed)
// algorithm (Section 7) for incremental maintenance of general recursive
// views with stratified negation and aggregation, under set semantics.
//
// For each stratum, in increasing stratum order, three steps run:
//
//  1. Overestimate: a semi-naive fixpoint of δ⁻-rules deletes every tuple
//     that has *any* derivation using a deleted tuple, evaluating the
//     non-Δ subgoals over the old (pre-deletion) relations.
//  2. Rederive: δ⁺(p) :- δ⁻(p) & s1ν & … & snν puts back overestimated
//     tuples that still have a derivation in the new state, iterated to
//     fixpoint.
//  3. Insert: a semi-naive fixpoint propagates insertions over the new
//     state.
//
// The engine also maintains views across view-definition changes:
// AddRule/RemoveRule propagate the derivations a rule contributes exactly
// like tuple-level changes (Section 7's rule insertion/deletion).
package dred

import (
	"fmt"
	"maps"
	"slices"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/relation"
	"ivm/internal/strata"
)

// Stats describes the work of the most recent maintenance operation.
type Stats struct {
	// Overestimated counts tuples placed in δ⁻ overestimates (step 1).
	Overestimated int
	// Rederived counts overestimated tuples put back in step 2.
	Rederived int
	// Inserted counts tuples added by step 3.
	Inserted int
	// RuleFirings counts rule evaluations across all steps and strata.
	RuleFirings int
	// FixpointRounds counts semi-naive fixpoint rounds run across the
	// step-1 overestimate, step-2 rederivation, and step-3 insertion
	// loops of all strata.
	FixpointRounds int
}

// Config carries the engine's tuning knobs.
type Config struct {
	// Metrics, when non-nil, receives the engine's counters and timing
	// histograms (dred_*, eval_* and planner_* series). Nil disables
	// collection.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives per-operation trace events. Nil
	// costs a single pointer check per event site.
	Tracer metrics.Tracer
}

// Engine maintains the materialization of a (possibly recursive) view
// program under set semantics.
type Engine struct {
	prog  *datalog.Program
	strat *strata.Stratification
	db    *eval.DB
	gts   map[eval.RuleLit]*eval.GroupTable

	// last holds the work counters of the most recent operation. It is
	// written only by Apply/AddRule/RemoveRule and read via Stats();
	// callers sharing the engine across goroutines must serialize
	// maintenance against Stats (ivm.Views copies it onto each version it
	// publishes, under its write mutex; its readers never touch the engine).
	last Stats

	// lastNet holds, per predicate, the exact signed net delta the most
	// recent operation committed into stored content (base transitions
	// and derived-set changes alike). Snapshot publication replays these
	// deltas onto the previous published version.
	lastNet map[string]*relation.Relation

	// planner caches cost-based δ-rule plans. Rule edits Reset it: rule
	// indices shift with the program.
	planner *eval.Planner

	// aux[ri] is rule ri's rederivation rule δ⁺(p) :- δ⁻(p) & body, built
	// once per installed program; a head with expressions has none (an
	// empty Body).
	aux []datalog.Rule
	// srcs is the one source list an evaluation fills at a time; it is
	// cleared after each, so it holds no relation between evaluations.
	srcs []eval.Source

	// tracer and the resolved metric instruments; all nil-safe.
	tracer          metrics.Tracer
	instr           *eval.Instruments
	mOps            *metrics.Counter
	mOverestimated  *metrics.Counter
	mRederived      *metrics.Counter
	mInserted       *metrics.Counter
	mRuleFirings    *metrics.Counter
	mFixpointRounds *metrics.Counter
	mApplySeconds   *metrics.Histogram
	mStepSecs       [3]*metrics.Histogram
}

// Stats returns the work counters of the most recent maintenance
// operation (Apply, AddRule, or RemoveRule), as a Stats.
func (e *Engine) Stats() any { return e.last }

// CommittedDeltas returns, per predicate, the exact signed count delta
// the most recent operation merged into its stored relation. The
// relations are not mutated after the operation returns.
func (e *Engine) CommittedDeltas() map[string]*relation.Relation { return e.lastNet }

// Fold merges deltas — the CommittedDeltas of the engine that ran the
// commit — into stored content without evaluating a rule. The caller has
// checked that they fit and leaves them alone afterwards. Group tables
// cannot be carried by a fold: they are dropped, and the next operation
// builds the ones it needs, as it does any missing table.
func (e *Engine) Fold(deltas map[string]*relation.Relation) {
	e.db.MergeDeltas(deltas)
	e.lastNet, e.last = deltas, Stats{}
	e.gts = make(map[eval.RuleLit]*eval.GroupTable)
}

// observing reports whether any timing consumer is active, so the
// unobserved hot path skips clock reads entirely.
func (e *Engine) observing() bool { return e.tracer != nil || e.mApplySeconds != nil }

// New validates and stratifies prog, materializes it over the base
// relations of base (cloned; multiplicities collapse to sets), and
// returns a ready engine.
func New(prog *datalog.Program, base *eval.DB) (*Engine, error) {
	return NewWithConfig(prog, base, Config{})
}

// NewWithConfig is New with tuning knobs.
func NewWithConfig(prog *datalog.Program, base *eval.DB, cfg Config) (*Engine, error) {
	db := eval.NewDB()
	for _, pred := range base.Preds() {
		db.Put(pred, base.Get(pred).ToSet())
	}
	e := &Engine{
		db:     db,
		tracer: cfg.Tracer, instr: eval.NewInstruments(cfg.Metrics),
		planner: eval.NewPlanner(cfg.Metrics),
	}
	if err := e.Install(prog); err != nil {
		return nil, err
	}
	if r := cfg.Metrics; r != nil {
		e.mOps = r.Counter("dred_ops_total")
		e.mOverestimated = r.Counter("dred_overestimated_total")
		e.mRederived = r.Counter("dred_rederived_total")
		e.mInserted = r.Counter("dred_inserted_total")
		e.mRuleFirings = r.Counter("dred_rule_firings_total")
		e.mFixpointRounds = r.Counter("dred_fixpoint_rounds_total")
		e.mApplySeconds = r.Histogram("dred_apply_seconds")
		e.mStepSecs[0] = r.Histogram("dred_step1_seconds")
		e.mStepSecs[1] = r.Histogram("dred_step2_seconds")
		e.mStepSecs[2] = r.Histogram("dred_step3_seconds")
	}
	if err := e.materialize(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) materialize() error {
	ev := eval.NewEvaluator(e.prog, e.strat, eval.Set)
	ev.Instr = e.instr
	ev.Planner = e.planner
	if err := ev.Evaluate(e.db); err != nil {
		return err
	}
	// DRed works on sets: collapse the per-stratum derivation counts the
	// evaluator tracks for nonrecursive strata.
	for pred := range e.prog.DerivedPreds() {
		e.db.Put(pred, e.db.Get(pred).ToSet())
	}
	e.gts = ev.GroupTables
	return nil
}

// Program returns the maintained view program.
func (e *Engine) Program() *datalog.Program { return e.prog }

// Relation returns the stored relation for pred (all counts 1), or nil.
func (e *Engine) Relation(pred string) *relation.Relation { return e.db.Get(pred) }

// DB exposes the engine's storage (read-only use).
func (e *Engine) DB() *eval.DB { return e.db }

// Apply maintains every view given base-relation changes (positive counts
// insert, negative delete; multiplicities collapse to set transitions).
// Deletions of absent tuples are rejected. The new materialization
// contains t iff t has a derivation in the updated database (Theorem 7.1).
// It returns the signed change of each derived relation that moved: -1 for
// a tuple that left the view, +1 for one that entered it.
func (e *Engine) Apply(baseDelta map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	e.last = Stats{}
	if e.tracer != nil {
		e.tracer.BatchStart("dred", len(baseDelta))
	}
	derived := e.prog.DerivedPreds()
	net := make(map[string]*relation.Relation)
	for pred, d := range baseDelta {
		if derived[pred] {
			return nil, fmt.Errorf("dred: delta for derived predicate %s (only base relations may change)", pred)
		}
		stored := e.db.Ensure(pred, d.Arity())
		if stored.Arity() >= 0 && d.Arity() >= 0 && stored.Arity() != d.Arity() {
			return nil, fmt.Errorf("dred: delta for %s has arity %d, relation has arity %d", pred, d.Arity(), stored.Arity())
		}
		trans := relation.New(d.Arity())
		var verr error
		d.Each(func(row relation.Row) {
			if verr != nil {
				return
			}
			has := stored.Has(row.Tuple)
			switch {
			case row.Count > 0 && !has:
				trans.AddRow(row.WithCount(1))
			case row.Count < 0:
				if !has {
					verr = fmt.Errorf("dred: deletion of absent tuple %s%s", pred, row.Tuple)
					return
				}
				trans.AddRow(row.WithCount(-1))
			}
		})
		if verr != nil {
			return nil, verr
		}
		if trans.Empty() {
			continue
		}
		net[pred] = trans
	}
	return e.propagate(net, nil, nil)
}

// AddRule extends the view definition with a new rule and incrementally
// folds its derivations into the materialization. The rule's head must be
// an existing derived predicate or a fresh one: turning a base relation
// with stored facts into a derived predicate is rejected, since derived
// relations are defined entirely by their rules (a rematerialization
// would drop the facts).
func (e *Engine) AddRule(r datalog.Rule) (map[string]*relation.Relation, error) {
	e.last = Stats{}
	if e.tracer != nil {
		e.tracer.BatchStart("dred:add-rule", 1)
	}
	if !e.prog.DerivedPreds()[r.Head.Pred] {
		if stored := e.db.Get(r.Head.Pred); stored != nil && !stored.Empty() {
			return nil, fmt.Errorf("dred: cannot add a rule for %s: it is a base relation with stored facts", r.Head.Pred)
		}
	}
	newProg := e.prog.Clone()
	newProg.Rules = append(newProg.Rules, r)
	return e.edit(newProg, maps.Clone(e.gts), func() (map[string]*relation.Relation, error) {
		// Seed: the new rule's derivations not yet in the view.
		seed, err := e.ruleSeed(len(newProg.Rules)-1, false)
		if err != nil {
			return nil, err
		}
		seedAdd := map[string]*relation.Relation{r.Head.Pred: seed}
		return e.propagate(make(map[string]*relation.Relation), nil, seedAdd)
	})
}

// RemoveRule deletes rule index ri from the view definition and
// incrementally removes the derivations only it supported.
func (e *Engine) RemoveRule(ri int) (map[string]*relation.Relation, error) {
	e.last = Stats{}
	if e.tracer != nil {
		e.tracer.BatchStart("dred:remove-rule", 1)
	}
	if ri < 0 || ri >= len(e.prog.Rules) {
		return nil, fmt.Errorf("dred: rule index %d out of range", ri)
	}
	removed := e.prog.Rules[ri]

	// Seed: every stored tuple the removed rule derives is a deletion
	// candidate (step 2 rederives those the remaining rules support).
	seed, err := e.ruleSeed(ri, true)
	if err != nil {
		return nil, err
	}

	newProg := e.prog.Clone()
	newProg.Rules = append(newProg.Rules[:ri], newProg.Rules[ri+1:]...)
	// Group tables are keyed by rule index: shift keys above ri.
	gts := make(map[eval.RuleLit]*eval.GroupTable, len(e.gts))
	for k, v := range e.gts {
		switch {
		case k.Rule == ri:
			// dropped with the rule
		case k.Rule > ri:
			gts[eval.RuleLit{Rule: k.Rule - 1, Lit: k.Lit}] = v
		default:
			gts[k] = v
		}
	}
	headPred := removed.Head.Pred
	return e.edit(newProg, gts, func() (map[string]*relation.Relation, error) {
		// The head predicate may have lost all its rules; it may even no
		// longer be derived. Either way its stratum in the *new* program
		// drives propagation; if it vanished as a derived predicate, treat
		// its tuples as plain deletions seeded at its old location.
		if !newProg.DerivedPreds()[headPred] {
			// The predicate is no longer derived: its whole extension drains.
			// propagate commits the negative net into storage and pushes the
			// deletions through the higher strata.
			return e.propagate(map[string]*relation.Relation{headPred: seed.Negate()}, nil, nil)
		}
		seedDel := map[string]*relation.Relation{headPred: seed}
		return e.propagate(make(map[string]*relation.Relation), seedDel, nil)
	})
}

// edit validates and stratifies a rule edit's program, installs it with
// gts and runs its maintenance. If that fails, the previous program,
// strata and group tables come back: a rejected edit leaves the engine's
// program as it was, as a rejected Apply leaves its stored rows. Either
// way the plan cache starts over, because cached plans are keyed by rule
// index.
func (e *Engine) edit(prog *datalog.Program, gts map[eval.RuleLit]*eval.GroupTable,
	maintain func() (map[string]*relation.Relation, error)) (map[string]*relation.Relation, error) {

	if err := datalog.Validate(prog); err != nil {
		return nil, err
	}
	st, err := strata.Compute(prog)
	if err != nil {
		return nil, err
	}
	oldProg, oldStrat, oldGts := e.prog, e.strat, e.gts
	e.install(prog, st, gts)
	changes, err := maintain()
	if err != nil {
		e.install(oldProg, oldStrat, oldGts)
	}
	return changes, err
}

// Install makes prog the engine's program with no rule evaluated: the
// engine's first step, and the first half of folding a rule edit's commit
// record (Fold merges its Δ). Group tables are dropped, as a fold does.
func (e *Engine) Install(prog *datalog.Program) error {
	_, err := e.edit(prog, make(map[eval.RuleLit]*eval.GroupTable), func() (map[string]*relation.Relation, error) { return nil, nil })
	return err
}

// install makes prog, its strata and gts the engine's, with prog's
// rederivation rules, and starts the plan cache over.
func (e *Engine) install(prog *datalog.Program, st *strata.Stratification, gts map[eval.RuleLit]*eval.GroupTable) {
	e.prog, e.strat, e.gts = prog, st, gts
	e.aux = make([]datalog.Rule, len(prog.Rules))
	for ri, r := range prog.Rules {
		if !slices.ContainsFunc(r.Head.Args, isArith) {
			e.aux[ri] = datalog.Rule{Head: r.Head, Body: append([]datalog.Literal{{Kind: datalog.LitPositive, Atom: r.Head}}, r.Body...)}
		}
	}
	e.planner.Reset()
}

func isArith(t datalog.Term) bool {
	_, ok := t.(datalog.Arith)
	return ok
}

// sources returns the engine's source list at length n, empty.
func (e *Engine) sources(n int) []eval.Source {
	if cap(e.srcs) < n {
		e.srcs = make([]eval.Source, n)
	}
	return e.srcs[:n]
}

// ruleSeed evaluates rule ri over the committed state and returns, as a
// set, the tuples it derives that the head relation holds (stored) or
// lacks (!stored): the seed of a rule removal, resp. insertion.
func (e *Engine) ruleSeed(ri int, stored bool) (*relation.Relation, error) {
	rule := e.prog.Rules[ri]
	head := e.db.Ensure(rule.Head.Pred, len(rule.Head.Args))
	out := relation.New(len(rule.Head.Args))
	out.BorrowFrom(head, nil)
	srcs, err := e.ruleSources(ri, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := eval.EvalRule(rule, srcs, -1, out, e.instr); err != nil {
		return nil, err
	}
	seed := relation.New(len(rule.Head.Args))
	out.Each(func(row relation.Row) {
		if row.Count > 0 && head.Has(row.Tuple) == stored {
			seed.AddRow(row.WithCount(1))
		}
	})
	return seed, nil
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
