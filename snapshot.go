package ivm

import (
	"fmt"
	"sort"
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
)

// version is one published snapshot of the views: an immutable map of
// predicate → versioned relation plus the program and the trace of the
// commit that published it. The maintainer builds the successor off-line (the
// per-update deltas are pushed onto copy-on-write relation versions,
// sharing every unchanged relation with the predecessor) and publishes
// it with a single atomic pointer store — readers pin a version with
// one atomic load and never block on, or are blocked by, maintenance.
type version struct {
	id         uint64
	rels       map[string]*relation.Versioned
	prog       *datalog.Program
	programSrc string
	// trace is the version's ApplyTrace, frozen once it is published; its
	// Strategy is what maintains prog (Views.Strategy).
	trace *ApplyTrace
}

// reader returns the pinned read view of pred, or nil if the predicate
// has no stored relation in this version.
func (vv *version) reader(pred string) relation.Reader {
	vr := vv.rels[pred]
	if vr == nil {
		return nil
	}
	return vr.Reader()
}

// Snapshot is a repeatable-read handle: every read through it sees the
// single version that was current when Views.Snapshot was called, no
// matter how many updates commit afterwards. Snapshots are cheap (one
// atomic load), safe for concurrent use, and never expire — they hold
// only immutable data, so the garbage collector reclaims a version once
// the last snapshot pinning it is dropped.
type Snapshot struct {
	views *Views
	v     *version
}

// Snapshot pins the current version for repeatable reads:
//
//	s := v.Snapshot()
//	before := s.Rows("hop")     // consistent with ...
//	n := s.Count("hop", "a", "c") // ... this, even while Apply runs
//
// Reads through the Views directly (v.Rows, v.Query, ...) each pin the
// then-current version instead.
func (v *Views) Snapshot() *Snapshot { return &Snapshot{views: v, v: v.cur.Load()} }

// Version returns the snapshot's monotonically increasing version
// number. Version n+1 is the state of version n with exactly one
// committed maintenance batch applied; ChangeSet.Version ties an Apply
// to the version in which its effects became visible.
func (s *Snapshot) Version() uint64 { return s.v.id }

// ProgramSource returns the program text as of the snapshot.
func (s *Snapshot) ProgramSource() string { return s.v.programSrc }

// Preds returns the snapshot's stored predicates (base and derived,
// excluding internal auxiliary predicates), sorted.
func (s *Snapshot) Preds() []string {
	out := make([]string, 0, len(s.v.rels))
	for p := range s.v.rels {
		if !s.views.hidden[p] {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Rows returns the stored rows of a (base or derived) relation at the
// snapshot, sorted lexicographically.
func (s *Snapshot) Rows(pred string) []Row {
	vr := s.v.rels[pred]
	if vr == nil {
		return nil
	}
	return vr.Flat().SortedRows()
}

// Count returns the derivation count of the tuple at the snapshot (0 if
// absent).
func (s *Snapshot) Count(pred string, vals ...any) int64 {
	r := s.v.reader(pred)
	if r == nil {
		return 0
	}
	return r.Count(T(vals...))
}

// Has reports whether the tuple is present at the snapshot.
func (s *Snapshot) Has(pred string, vals ...any) bool {
	return s.Count(pred, vals...) > 0
}

// Query matches a single goal pattern against the snapshot — the
// semantics of Views.Query, evaluated at the pinned version.
func (s *Snapshot) Query(goal string) ([]QueryResult, error) {
	a, err := parser.ParseGoal(goal)
	if err != nil {
		return nil, err
	}
	r := s.v.reader(a.Pred)
	if r == nil {
		return nil, nil
	}
	return matchGoal(a, r), nil
}

// Explain enumerates the derivations of a ground view tuple at the
// snapshot — the semantics of Views.Explain, evaluated at the pinned
// version (group tables are rebuilt from the snapshot's relations, so
// no engine state is touched and no lock is taken).
func (s *Snapshot) Explain(goal string) ([]Derivation, error) {
	a, err := parser.ParseGoal(goal)
	if err != nil {
		return nil, err
	}
	tuple := make(Tuple, len(a.Args))
	for i, t := range a.Args {
		c, ok := t.(datalog.Const)
		if !ok {
			return nil, fmt.Errorf("ivm: Explain needs a ground goal; %s is a variable", t)
		}
		tuple[i] = c.Value
	}

	prog, db := s.v.prog, s.flatDB()
	var out []Derivation
	for _, ri := range prog.RulesFor(a.Pred) {
		rule := prog.Rules[ri]
		srcs, err := eval.SourcesAt(rule, ri, db.Reader, s.views.cfg.semantics, nil)
		if err != nil {
			return nil, err
		}
		matches, err := eval.Explain(rule, srcs, tuple)
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			d := Derivation{Rule: rule.String(), RuleIndex: ri}
			for _, g := range m {
				d.Subgoals = append(d.Subgoals, Subgoal{
					Pred: g.Pred, Tuple: g.Tuple,
					Negated: g.Negated, Aggregate: g.Aggregate, Count: g.Count,
				})
			}
			out = append(out, d)
		}
	}
	// Derivation enumeration walks hash relations, so within a rule the
	// match order is unspecified; sort for deterministic output.
	sort.Slice(out, func(i, j int) bool {
		if out[i].RuleIndex != out[j].RuleIndex {
			return out[i].RuleIndex < out[j].RuleIndex
		}
		return derivationKey(out[i]) < derivationKey(out[j])
	})
	return out, nil
}

// flatDB collects the snapshot's relations, each flattened to one plain
// relation, as the database rule sources are resolved against.
func (s *Snapshot) flatDB() *eval.DB {
	db := eval.NewDB()
	for pred, vr := range s.v.rels {
		db.Put(pred, vr.Flat())
	}
	return db
}

// RulePlan is one rule's join plan as the cost-based planner would
// order it against a snapshot's statistics.
type RulePlan struct {
	// Rule renders the planned rule.
	Rule string
	// RuleIndex is the rule's position in Program().Rules.
	RuleIndex int
	// Plan renders the chosen literal order and per-literal access paths
	// (" -> "-separated; "point", "index [cols ...]", "scan", "filter").
	Plan string
}

// ExplainPlan renders the join plan the cost-based planner chooses for
// every rule deriving pred, against the snapshot's relation statistics.
// The output is deterministic: planning iterates body literals in rule
// order and the cardinality sketches are insertion-order independent.
// Plans rendered here are advisory — the engines cache their own plans
// keyed per (rule, Δ-position, semantics) and replan on cardinality
// drift — but the order and access paths match a fresh full-evaluation
// plan for the same statistics.
func (s *Snapshot) ExplainPlan(pred string) ([]RulePlan, error) {
	prog, db := s.v.prog, s.flatDB()
	var out []RulePlan
	for _, ri := range prog.RulesFor(pred) {
		rule := prog.Rules[ri]
		srcs, err := eval.SourcesAt(rule, ri, db.Reader, s.views.cfg.semantics, nil)
		if err != nil {
			return nil, err
		}
		plan, err := eval.PlanRule(rule, srcs, -1)
		if err != nil {
			return nil, err
		}
		out = append(out, RulePlan{Rule: rule.String(), RuleIndex: ri, Plan: plan.Describe(rule)})
	}
	return out, nil
}

// versionLocked is the version rels make under id with the engine's
// program as it stands and a trace of the engine's last pass, of the
// fold of a record and of the compactions the pushes onto rels made (wmu
// held).
// Every successful maintenance group publishes one — even one with no
// visible changes — so the current trace is the current version's. The maintainer assigns ids
// before the WAL append so the durable record and the published
// version carry the same number; ids must advance in publish order.
func (v *Views) versionLocked(rels map[string]*relation.Versioned, id uint64) *version {
	copied, rebased, folded := v.copied, v.rebased, v.folded
	v.copied, v.rebased, v.folded = 0, 0, 0
	return &version{
		id:         id,
		rels:       rels,
		prog:       v.eng.Program(),
		programSrc: v.programSrc,
		trace:      &ApplyTrace{Version: id, Strategy: v.strategy, Stats: v.eng.Stats(), Strata: v.eng.Strata(), Fold: folded, RowsCopied: copied, RowsRebased: rebased},
	}
}

// SeedVersion republishes the current state unchanged under version id
// — no maintenance runs and no WAL record is written. Replication uses
// it to align version counters with a remote history: a recovered
// primary seeds to its checkpoint's base version before WAL replay, and
// a follower seeds to the version of the state snapshot it just loaded.
// Reads observe the same relations under the new id.
func (v *Views) SeedVersion(id uint64) {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	nv := *v.cur.Load()
	nv.id, nv.trace = id, &ApplyTrace{Version: id, Strategy: nv.trace.Strategy}
	v.installLocked(&nv)
}

// installLocked stamps nv's trace with the time and makes nv the current
// version: one atomic store and a wake-up for WaitForVersion.
func (v *Views) installLocked(nv *version) {
	nv.trace.Published = time.Now()
	v.cur.Store(nv)
	v.wakeVersionWaiters()
}

// wakeVersionWaiters releases every WaitForVersion caller to re-check
// the published version.
func (v *Views) wakeVersionWaiters() {
	v.verMu.Lock()
	if v.verCh != nil {
		close(v.verCh)
		v.verCh = nil
	}
	v.verMu.Unlock()
}

// versionWaitCh returns a channel closed at the next publish.
func (v *Views) versionWaitCh() <-chan struct{} {
	v.verMu.Lock()
	if v.verCh == nil {
		v.verCh = make(chan struct{})
	}
	ch := v.verCh
	v.verMu.Unlock()
	return ch
}

// WaitForVersion blocks until the published version is at least min,
// reporting whether it got there before timeout. Bounded-staleness
// reads use it on a replica: wait for the version an Apply ack carried,
// then read — read-your-writes across the replication lag, or a clear
// timeout signal to redirect to the leader.
func (v *Views) WaitForVersion(min uint64, timeout time.Duration) bool {
	if v.cur.Load().id >= min {
		return true
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ch := v.versionWaitCh()
		if v.cur.Load().id >= min {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return v.cur.Load().id >= min
		}
	}
}
