// Package ivm is an incremental view maintenance engine for relational /
// deductive databases, implementing the two algorithms of Gupta, Mumick &
// Subrahmanian, "Maintaining Views Incrementally" (SIGMOD 1993):
//
//   - the counting algorithm for nonrecursive views (with stratified
//     negation and aggregation, under set or SQL duplicate semantics),
//     which stores the number of alternative derivations of every view
//     tuple and computes exactly the tuples inserted into or deleted from
//     each view; and
//   - the DRed (Delete and Rederive) algorithm for general recursive
//     views (set semantics), which deletes an overestimate, rederives the
//     survivors, and propagates insertions.
//
// One engine runs both, stratum by stratum, and maintains the views as
// well when rules are added to or removed from the view definition.
//
// Views are defined in an extended Datalog dialect:
//
//	db := ivm.NewDatabase()
//	db.MustLoad(`link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).`)
//	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
//	changes, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b"))
//
// The algorithm is chosen per stratum (counting for nonrecursive strata,
// DRed for recursive ones) and can be forced on every stratum with
// WithStrategy.
package ivm

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/sched"
	"ivm/internal/storage"
	"ivm/internal/value"
)

// Value is a scalar database value (int64, float64, or string).
type Value = value.Value

// Tuple is a fixed-arity sequence of values.
type Tuple = value.Tuple

// Row pairs a tuple with its signed derivation count.
type Row = relation.Row

// T builds a Tuple from Go scalars (int, int64, float64, string, Value).
func T(vals ...any) Tuple { return value.T(vals...) }

// ErrStoreClosed is returned (wrapped) by Apply, Sync, and rule edits on
// store-bound views after Close: the binding remains so durability is
// never dropped silently. Match with errors.Is.
var ErrStoreClosed = storage.ErrStoreClosed

// Int, Float and Str build scalar values.
func Int(i int64) Value     { return value.NewInt(i) }
func Float(f float64) Value { return value.NewFloat(f) }
func Str(s string) Value    { return value.NewString(s) }

// Semantics selects set vs SQL duplicate (multiset) semantics.
type Semantics = eval.Semantics

// Tracer receives maintenance events as they happen, per stratum and per
// rule evaluation (a commit's whole account is its ApplyTrace); it must be
// safe for the goroutine running Apply. A nil tracer costs one pointer
// check per event site. FuncTracer implements it with closures.
type Tracer = metrics.Tracer

// FuncTracer is a Tracer assembled from optional callbacks; nil fields
// are skipped.
type FuncTracer = metrics.FuncTracer

// MetricsSnapshot is an immutable point-in-time copy of the views'
// metric registry: monotonic counters, gauges, and duration histograms.
// Render it with WriteTo (sorted `name value` lines) or read individual
// series with Counter/Gauge.
type MetricsSnapshot = metrics.Snapshot

const (
	// SetSemantics treats every relation as a set (counts still track
	// per-stratum derivations internally, Section 5.1 of the paper).
	SetSemantics = eval.Set
	// DuplicateSemantics is SQL multiset semantics; view counts are true
	// multiplicities. Nonrecursive programs only.
	DuplicateSemantics = eval.Duplicate
)

// Strategy selects the maintenance algorithm.
type Strategy int

const (
	// Auto uses Counting for nonrecursive strata and DRed for recursive
	// ones — the paper's recommendation.
	Auto Strategy = iota
	// Counting uses Algorithm 4.1 on every stratum (nonrecursive views
	// only).
	Counting
	// DRed uses the Delete-and-Rederive algorithm on every stratum (set
	// semantics).
	DRed
	// Recompute re-evaluates views from scratch on every change (the
	// non-incremental baseline).
	Recompute
)

var strategyNames = [...]string{Auto: "auto", Counting: "counting", DRed: "dred", Recompute: "recompute"}

func (s Strategy) String() string {
	if s >= 0 && int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// MarshalText and UnmarshalText spell a strategy by name, as JSON does.
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }
func (s *Strategy) UnmarshalText(b []byte) (err error) {
	*s, err = ParseStrategy(string(b))
	return err
}

// ParseStrategy reads a strategy by the name String prints ("" is Auto),
// as flags spell it.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if name == n {
			return Strategy(s), nil
		}
	}
	if name == "" {
		return Auto, nil
	}
	return Auto, fmt.Errorf("unknown strategy %q", name)
}

// ParseSemantics reads "set" (or "") and "duplicate" (or "dup").
func ParseSemantics(name string) (Semantics, error) {
	switch name {
	case "", SetSemantics.String():
		return SetSemantics, nil
	case DuplicateSemantics.String(), "dup":
		return DuplicateSemantics, nil
	}
	return SetSemantics, fmt.Errorf("unknown semantics %q", name)
}

// Database holds base (edb) relations. Materialize snapshots the current
// base state into a Views instance; subsequent changes must flow through
// Views.Apply so the views stay consistent.
type Database struct {
	base *eval.DB
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{base: eval.NewDB()} }

// Load parses and inserts ground facts, e.g. `link(a,b). link(b,c).`.
// Facts may carry multiplicities: `link(a,b) * 3.`. A fact whose arity
// differs from its relation's, or from an earlier fact's of the same
// predicate, is an error, and then nothing is inserted.
func (d *Database) Load(src string) error {
	facts, err := parser.ParseDelta(src)
	if err != nil {
		return err
	}
	arity := make(map[string]int)
	for _, f := range facts {
		want, ok := arity[f.Pred]
		if !ok {
			want = len(f.Tuple)
			if r := d.base.Get(f.Pred); r != nil && r.Arity() >= 0 {
				want = r.Arity()
			}
			arity[f.Pred] = want
		}
		if len(f.Tuple) != want {
			return fmt.Errorf("load: fact %s%s has arity %d, but %s has arity %d", f.Pred, f.Tuple, len(f.Tuple), f.Pred, want)
		}
	}
	for _, f := range facts {
		d.base.Ensure(f.Pred, len(f.Tuple)).Add(f.Tuple, f.Count)
	}
	return nil
}

// MustLoad is Load that panics on error (for tests and examples).
func (d *Database) MustLoad(src string) {
	if err := d.Load(src); err != nil {
		panic(err)
	}
}

// Insert adds one base tuple with count 1.
func (d *Database) Insert(pred string, vals ...any) {
	t := value.T(vals...)
	d.base.Ensure(pred, len(t)).Add(t, 1)
}

// InsertTuple adds a base tuple with an explicit count.
func (d *Database) InsertTuple(pred string, t Tuple, count int64) {
	d.base.Ensure(pred, len(t)).Add(t, count)
}

// Rows returns the stored rows of a base relation, sorted.
func (d *Database) Rows(pred string) []Row {
	r := d.base.Get(pred)
	if r == nil {
		return nil
	}
	return r.SortedRows()
}

// Views is a set of materialized views maintained incrementally over a
// snapshot of a Database.
//
// Concurrency model (see DESIGN.md §10): reads (Rows, Count, Has,
// Query, Explain, Snapshot, Trace) pin the current
// published version with one atomic load and never take a lock — they
// neither block on nor are blocked by maintenance. Writes (Apply,
// AddRule, RemoveRule) are serialized through a coalescing scheduler:
// concurrent Apply callers enqueue, a single maintainer merges each
// queue drain into one ⊎-net update, runs one maintenance pass, appends
// the batch's WAL record and waits for its one fsync, and only then
// publishes the successor version atomically.
type Views struct {
	cfg        config
	strategy   Strategy      // what maintains the program (regime); wmu, versions carry a copy
	programSrc string        // authoritative copy (wmu); versions carry a race-free copy
	copied     int           // rows the pushes since the last version was made compacted (wmu)
	folded     time.Duration // the fold of the record since the last version was made (wmu)
	// hidden marks internal auxiliary predicates (e.g. the GROUP BY join
	// helpers the SQL front end generates) that are filtered out of
	// user-facing change sets. Written only before concurrent use.
	hidden map[string]bool

	// wmu serializes every operation that touches engine state or the
	// store: batch maintenance, rule edits, Save, Sync, Close, and the
	// OpenStore binding. Readers never take it.
	wmu sync.Mutex

	// cur is the atomically published current version. Never nil after
	// MaterializeProgram returns.
	cur atomic.Pointer[version]

	// comb is the coalescing update scheduler: the first Apply caller to
	// find no maintainer active becomes the maintainer and drains the
	// queue in batches (processBatch).
	comb *sched.Combiner[*applyReq]

	// handlersMu guards the OnCommit subscriptions, OnChange's among
	// them. Handlers run on the maintainer goroutine after version
	// publish, before the batch's Apply calls return.
	handlersMu sync.Mutex
	handlers   []func(cs *ChangeSet)

	// verMu/verCh implement WaitForVersion: verCh, when non-nil, is
	// closed at the next version publish. Lazily allocated so publishes
	// with no waiters cost one mutex hop and no channel.
	verMu sync.Mutex
	verCh chan struct{}

	// reg collects the engines' counters and timing histograms; always
	// non-nil for views built by MaterializeProgram/MaterializeSQL.
	reg *metrics.Registry

	// Cached scheduler/snapshot instruments (nil-safe).
	mBatches      *metrics.Counter
	mBatchUpdates *metrics.Counter
	mDedups       *metrics.Counter
	mApplyWait    *metrics.Histogram
	mIdemEntries  *metrics.Gauge
	mHistBytes    *metrics.Gauge
	// One observation per folded commit record (foldRecordLocked).
	mReplaySecs *metrics.Histogram
	mReplayRows *metrics.Counter

	// history is the window of recent commits (history.go), nil until
	// needed; keys indexes its keys: key → the version of the commit
	// carrying it, the maintainer's once the history runs.
	history atomic.Pointer[sched.Window[CommitEvent]]
	keys    map[string]uint64

	// store, when non-nil, is the crash-recovery store the views are
	// bound to (OpenStore): every Apply is durably logged to its WAL and
	// Sync checkpoints into it. Guarded by wmu.
	store *storage.Store

	// fence is the cluster leadership fencing epoch (0 reads as 1, the
	// epoch of a never-promoted primary). It only moves forward —
	// SetFenceEpoch on promotion, or a follower mirroring its leader's
	// epoch — and for store-bound views every raise is persisted before
	// it is visible, so a restarted node remembers the epoch it was
	// deposed at.
	fence atomic.Uint64

	// eng is the maintenance engine (touched only under wmu), whatever
	// the strategy: Recompute is one of its algorithms (DESIGN.md §17).
	eng *dred.Engine
}

// Materialize parses the program (rules; facts are loaded into the
// database first), validates and stratifies it, materializes every view
// over the current base state, and returns the maintained Views.
func (d *Database) Materialize(programSrc string, opts ...Option) (*Views, error) {
	res, err := parser.Parse(programSrc)
	if err != nil {
		return nil, err
	}
	for _, f := range res.Facts {
		d.base.Ensure(f.Pred, len(f.Tuple)).Add(f.Tuple, f.Count)
	}
	return d.MaterializeProgram(res.Program, programSrc, opts...)
}

// MaterializeProgram is Materialize for an already parsed program.
func (d *Database) MaterializeProgram(prog *datalog.Program, programSrc string, opts ...Option) (*Views, error) {
	cfg, reg := newConfig(opts), metrics.NewRegistry()
	eng, err := cfg.materialize(prog, d.base, reg)
	if err != nil {
		return nil, err
	}
	return newViews(cfg, reg, eng, programSrc, nil, 1), nil
}

// materialize evaluates prog over base (which the engine copies) with the
// algorithm c names, reporting to reg.
func (c config) materialize(prog *datalog.Program, base *eval.DB, reg *metrics.Registry) (*dred.Engine, error) {
	dcfg, err := c.engineConfig(reg)
	if err != nil {
		return nil, err
	}
	return dred.NewWithConfig(prog, base, dcfg)
}

// engineConfig is the maintenance engine's configuration for c's strategy,
// reporting to reg.
func (c config) engineConfig(reg *metrics.Registry) (dred.Config, error) {
	alg, ok := map[Strategy]dred.Algorithm{Auto: dred.PerStratum, Counting: dred.Counting, DRed: dred.DRed, Recompute: dred.Recompute}[c.strategy]
	switch {
	case !ok:
		return dred.Config{}, fmt.Errorf("ivm: unknown strategy %v", c.strategy)
	case c.strategy == DRed && c.semantics == DuplicateSemantics:
		return dred.Config{}, fmt.Errorf("ivm: DRed requires set semantics")
	}
	return dred.Config{Algorithm: alg, Semantics: c.semantics, Metrics: reg, Tracer: c.tracer}, nil
}

// newViews wraps a ready engine, which reports to reg, as Views hiding the
// hidden predicates and publishes its storage as version id: each stored
// relation is frozen and shared, not copied.
func newViews(cfg config, reg *metrics.Registry, eng *dred.Engine, programSrc string, hidden []string, id uint64) *Views {
	v := &Views{cfg: cfg, programSrc: programSrc, reg: reg, eng: eng}
	v.setHidden(hidden)
	v.strategy = regime(eng)
	v.comb = sched.New(v.processBatch)
	v.mBatches = reg.Counter("sched_batches_total")
	v.mBatchUpdates = reg.Counter("sched_batch_updates_total")
	v.mDedups = reg.Counter("sched_idem_dedup_total")
	v.mIdemEntries = reg.Gauge("idem_window_entries")
	v.mHistBytes = reg.Gauge("history_bytes")
	v.mReplaySecs = reg.Histogram("commit_replay_seconds")
	v.mReplayRows = reg.Counter("commit_replay_rows_total")
	v.mApplyWait = reg.Histogram("sched_apply_wait_seconds")
	rels := make(map[string]*relation.Versioned)
	for _, pred := range eng.Preds() {
		rels[pred] = eng.Stored(pred).Publish(nil, nil)
	}
	v.wmu.Lock()
	v.installLocked(v.versionLocked(rels, id))
	v.wmu.Unlock()
	return v
}

// Strategy returns what maintains the current program: Counting when no
// stratum is recursive, DRed when every one is (or when forced), and Auto
// only for a mixed program under Auto, whose nonrecursive strata count
// and recursive ones run DRed. Recompute is as configured.
func (v *Views) Strategy() Strategy { return v.cur.Load().trace.Strategy }

// regime is what maintains eng's program, as Strategy and a commit
// record's stamp name it: the algorithms its strata run, or Recompute.
func regime(eng *dred.Engine) Strategy {
	return [...]Strategy{dred.DRed: DRed, dred.Counting: Counting, dred.PerStratum: Auto, dred.Recompute: Recompute}[eng.Regime()]
}

// Semantics returns the view semantics.
func (v *Views) Semantics() Semantics { return v.cfg.semantics }

// ProgramSource returns the program text the views were built from (as
// of the current published version).
func (v *Views) ProgramSource() string { return v.cur.Load().programSrc }

// Program returns the parsed, possibly rule-edited view program (as of
// the current published version).
func (v *Views) Program() *datalog.Program { return v.cur.Load().prog }

// Rows returns the stored rows of a (base or derived) relation at the
// current published version, sorted lexicographically. Derived rows
// carry derivation counts. Lock-free: never blocked by Apply.
func (v *Views) Rows(pred string) []Row { return v.Snapshot().Rows(pred) }

// Count returns the derivation count of the given tuple (0 if absent)
// at the current published version. Lock-free.
func (v *Views) Count(pred string, vals ...any) int64 { return v.Snapshot().Count(pred, vals...) }

// Has reports whether the tuple is in the (base or derived) relation at
// the current published version. Lock-free.
func (v *Views) Has(pred string, vals ...any) bool { return v.Snapshot().Has(pred, vals...) }

// applyReq is one enqueued Apply call, completed by the maintainer.
type applyReq struct {
	u *Update
	// rec, instead of u, is a commit record to fold (ApplyCommitRecord):
	// its deltas are merged as they stand and its keys enter the history,
	// without its payload when recovered from the WAL.
	rec       *CommitRecord
	recovered bool
	published time.Time // when the node that shipped rec published it, if known
	// edit, instead of u, is a rule edit (AddRule, RemoveRule): the
	// engine maintains it and its record carries the program.
	edit func(*dred.Engine) (map[string]*relation.Relation, error)
	// keys are the idempotency keys this request carries: one for a
	// keyed client apply, several only when a format-1 WAL record merged
	// from several applies is replayed.
	keys []string
	// replay marks a replicated script (ApplyScriptReplicated): it is
	// applied whatever the history holds, and its keys only enter it.
	replay  bool
	enq     time.Time // when it was enqueued
	cs      *ChangeSet
	deduped bool
	err     error
	done    chan struct{}
}

// applyGroup is the unit of maintenance within a batch: the requests it
// covers plus the single engine pass / WAL record / published version
// they share. A merged batch is one group covering every admitted
// request; the sequential fallback produces one group per request, each
// with its own version.
type applyGroup struct {
	reqs []*applyReq
	cs   *ChangeSet
	// rec is the group's commit record, cut when maintenance succeeds:
	// the version it publishes, every covered request's idempotency keys,
	// and — encoded only when the WAL or the history will hold it — the
	// deltas the engine committed. A folded group's record is the one it
	// was handed. The WAL logs it and replication ships it, so the
	// durable order and the published order agree.
	rec CommitRecord
	// ver is the version the group publishes: the relation map, program
	// and trace as of its maintenance pass — a later group of the batch
	// may edit the program.
	ver *version
	seq uint64 // the WAL sequence number of rec, once appended
	err error
}

// Apply maintains every view under the update and returns the per-view
// changes. The update's deletions must refer to stored tuples.
//
// Concurrent Apply calls coalesce: callers enqueue on the update
// scheduler and one of them becomes the maintainer, merging the queued
// updates into their ⊎-net effect and running a single maintenance pass
// for the batch. Every caller in a coalesced batch receives the batch's
// shared ChangeSet (the net changes of the whole batch; per-caller
// attribution is not defined once deltas merge) stamped with the
// version the batch published — ChangeSet.Version. If the merged update
// fails validation (e.g. a deletion of an absent tuple that another
// update in the batch does not cancel), the batch falls back to
// applying each update individually, in arrival order, so each caller
// gets exactly its own result or error.
//
// For store-bound views (OpenStore), the batch is durably logged to the
// WAL: Apply returns only after the record is fsynced — one fsync per
// batch, however many concurrent callers it coalesced — and the new
// version is published only after the fsync, so a snapshot never shows
// state the log has not made durable. Updates containing NaN or ±Inf
// floats are rejected up front (they have no replayable literal syntax),
// and after Close the error wraps ErrStoreClosed. A logging failure is
// returned as an error even though the in-memory views already applied
// the update. A failed fsync is sticky: every later update is refused
// before the views move, until the store is closed and reopened (which
// recovers what the WAL holds).
func (v *Views) Apply(u *Update) (*ChangeSet, error) {
	cs, _, err := v.submit(&applyReq{u: u})
	return cs, err
}

// ApplyIdempotent is Apply with exactly-once semantics under retries:
// the first apply committed under key is the only one ever applied, and
// every later call with the same key returns deduped=true and a
// ChangeSet that carries only the original apply's Version — no deltas
// (it is Empty) — instead of re-applying: the window remembers where a
// write landed, not its rows, so a retry that also needs the deltas
// re-reads them from a subscription resumed before that version. A key
// is known while its commit is in the views' history (WithHistory); a
// retry arriving after that re-applies. For store-bound views the key is
// logged inside the apply's WAL record and re-enters the history on
// recovery replay, so dedup survives a crash between commit and
// acknowledgment — the scenario a timed-out network client cannot
// distinguish from "never committed". An empty key degrades to plain
// Apply. A durability error (applied in memory, not logged) does not
// record the key; such errors are not safe to blind-retry and are
// reported to the caller instead.
func (v *Views) ApplyIdempotent(key string, u *Update) (cs *ChangeSet, deduped bool, err error) {
	if key == "" {
		cs, err = v.Apply(u)
		return cs, false, err
	}
	if len(key) > MaxIdempotencyKeyLen {
		return nil, false, fmt.Errorf("ivm: idempotency key of %d bytes exceeds the %d-byte limit", len(key), MaxIdempotencyKeyLen)
	}
	return v.submit(&applyReq{u: u, keys: []string{key}})
}

// submit enqueues one request on the scheduler and waits for the
// maintainer to complete it.
func (v *Views) submit(r *applyReq) (*ChangeSet, bool, error) {
	if r.u != nil && r.u.err != nil {
		return nil, false, r.u.err
	}
	r.enq, r.done = time.Now(), make(chan struct{})
	v.comb.Submit(r)
	<-r.done
	v.mApplyWait.Observe(time.Since(r.enq))
	if r.err != nil {
		return nil, false, r.err
	}
	return r.cs, r.deduped, nil
}

// processBatch is the maintainer: it runs on the scheduler leader's
// goroutine, one batch at a time, and drives it through the commit
// pipeline (DESIGN.md §17): dedupe → admit → maintain → log → publish →
// notify → release — updates, records to fold and rule edits alike.
func (v *Views) processBatch(batch []*applyReq) {
	v.wmu.Lock()
	taken := time.Now()
	h := v.history.Load()
	if h == nil && slices.ContainsFunc(batch, func(r *applyReq) bool { return len(r.keys) > 0 || r.rec != nil && len(r.rec.Keys) > 0 }) {
		h = v.historyLocked()
	}
	fresh, leaders, followers := v.dedupeLocked(batch)
	admitted := fresh[:0]
	for _, r := range fresh {
		if r.err = v.admitLocked(r.u); r.err == nil {
			admitted = append(admitted, r)
		}
	}
	// A group's record is encoded only when something will hold it: the
	// WAL, or the history.
	groups := v.maintainBatchLocked(admitted, v.store != nil || h != nil)
	v.logLocked(groups)
	v.publishLocked(groups, taken)
	v.wmu.Unlock()
	v.notifyGroups(groups, h)
	v.release(batch, groups, leaders, followers)
}

// dedupeLocked answers keyed requests before admission: a key in the
// history completes with the version its apply committed; a key that
// repeats within this very batch (a retry racing its first attempt) elects
// the first request as leader and parks the rest as its followers. What is
// left goes on to admission.
func (v *Views) dedupeLocked(batch []*applyReq) (fresh []*applyReq, leaders map[string]*applyReq, followers []*applyReq) {
	fresh = make([]*applyReq, 0, len(batch))
	for _, r := range batch {
		if len(r.keys) == 1 && !r.replay {
			key := r.keys[0]
			if ver, ok := v.keys[key]; ok {
				r.cs, r.deduped = &ChangeSet{version: ver}, true
				v.mDedups.Inc()
				continue
			}
			if leaders == nil {
				leaders = make(map[string]*applyReq)
			}
			if _, dup := leaders[key]; dup {
				followers = append(followers, r)
				continue
			}
			leaders[key] = r
		}
		fresh = append(fresh, r)
	}
	return fresh, leaders, followers
}

// maintainBatchLocked runs the engine over the admitted requests: as one
// group on their ⊎-merged net update when they merge and the merge
// validates, otherwise one group per request in arrival order. Each
// maintained group leaves with its change set, its commit record cut and
// the version it will publish.
func (v *Views) maintainBatchLocked(admitted []*applyReq, cut bool) []*applyGroup {
	v.mBatches.Inc()
	v.mBatchUpdates.Add(int64(len(admitted)))
	if len(admitted) == 0 {
		return nil
	}
	// next is the maintainer's copy of the current relation map: the
	// entries a group's deltas are not pushed onto keep sharing the
	// predecessor's versioned relations.
	cur := v.cur.Load()
	next, base := maps.Clone(cur.rels), cur.id
	if len(admitted) > 1 && mergeable(admitted) {
		merged := NewUpdate()
		for _, r := range admitted {
			merged.Merge(r.u)
		}
		if g := v.maintainGroupLocked(admitted, merged, next, base+1, cut); g.cs != nil {
			g.ver = v.versionLocked(next, g.rec.Version)
			return []*applyGroup{g}
		}
		// The merged net update did not validate as a whole; fall back to
		// applying each caller's update individually so each gets exactly
		// its own result or error.
	}
	return v.runSequentialLocked(admitted, next, base, cut)
}

// logLocked is the durability stage: each maintained group's commit record
// is appended to the WAL in commit order — so log order, apply order and
// publish order agree, and every published version has exactly one record
// (an empty net update logs too: replaying a no-op is a no-op, and a
// gapless sequence is what recovery and replication backfill align on) —
// and then the stage waits for them to be durable, so a published version
// never shows state the log has not made durable. The first wait fsyncs
// through the last record and covers the rest: one fsync per batch, even
// one that fell back to a group per request. A rule edit's
// record is one more record: it carries the program it leaves. A failure
// marks its group and does not stop the pipeline: the engine state
// already advanced and later groups build on it.
func (v *Views) logLocked(groups []*applyGroup) {
	if v.store == nil {
		return
	}
	notLogged := func(err error) error {
		return fmt.Errorf("ivm: update applied in memory but not durably logged: %w", err)
	}
	for _, g := range groups {
		if g.err != nil { // not maintained, or its record could not be cut
			continue
		}
		start := time.Now()
		var err error
		if g.seq, err = v.store.AppendRecord(g.rec); err != nil {
			g.err = notLogged(err)
		}
		g.ver.trace.WALAppend = time.Since(start)
	}
	for _, g := range groups {
		if g.seq == 0 {
			continue
		}
		start := time.Now()
		if err := v.store.WaitDurable(g.seq); err != nil {
			g.err = notLogged(err)
		}
		g.ver.trace.FsyncWait = time.Since(start)
	}
}

// publishLocked publishes each maintained group's version, in commit
// order. Every group whose maintenance succeeded publishes — including one
// whose log stage failed, because the engine state already advanced and
// later groups build on it — so published versions and WAL records
// correspond 1:1 and replication can align on the version number alone.
// A trace takes its group's keys, its earliest enqueue and the wait
// since, and a folded record's publish time on the node that shipped it.
func (v *Views) publishLocked(groups []*applyGroup, taken time.Time) {
	for _, g := range groups {
		if g.cs == nil {
			continue
		}
		t := g.ver.trace
		t.Enqueued = slices.MinFunc(g.reqs, func(a, b *applyReq) int { return a.enq.Compare(b.enq) }).enq
		t.Keys, t.Wait, t.PrimaryPublished = g.rec.Keys, taken.Sub(t.Enqueued), g.reqs[0].published
		v.installLocked(g.ver)
	}
}

// notifyGroups hands every fully committed group to the history h, if
// any, and then to the subscriptions, on the maintainer goroutine after
// publish (handlers see the new state) and outside wmu (a slow handler
// never extends a rule edit, Sync, or Close stall), but before the batch's
// requests complete. A group whose log failed enters neither: a dedup
// answer to the retry of an applied-but-unlogged update would be exactly
// the double apply the history exists to prevent.
func (v *Views) notifyGroups(groups []*applyGroup, h *sched.Window[CommitEvent]) {
	for _, g := range groups {
		if g.err != nil {
			continue
		}
		if h != nil {
			v.remember(h, g)
		}
		v.notify(g.cs)
	}
}

// release hands every request its outcome and wakes its caller. An
// in-batch duplicate takes its leader's: the leader's version marks the
// follower deduped (like a window hit, it learns where its write landed,
// not the rows), the leader's error propagates as-is (the follower's own
// retry would have failed the same way).
func (v *Views) release(batch []*applyReq, groups []*applyGroup, leaders map[string]*applyReq, followers []*applyReq) {
	for _, g := range groups {
		for _, r := range g.reqs {
			if r.err = g.err; r.err == nil {
				r.cs = g.cs
			}
		}
	}
	for _, f := range followers {
		leader := leaders[f.keys[0]]
		if f.err = leader.err; f.err == nil {
			f.cs, f.deduped = &ChangeSet{version: leader.cs.version}, true
			v.mDedups.Inc()
		}
	}
	for _, r := range batch {
		close(r.done)
	}
}

// admitLocked vets an update against the program — a relation a rule
// reads has that arity, whether it stores a row or not — and against the
// store before any memory is touched, so the views never run ahead of a
// log they cannot write to.
func (v *Views) admitLocked(u *Update) error {
	for _, rule := range v.eng.Program().Rules {
		for _, l := range rule.Body {
			if l.Kind == datalog.LitAggregate {
				l.Atom = l.Agg.Inner
			}
			if u != nil && l.Kind != datalog.LitCondition && u.per[l.Atom.Pred] != nil && u.per[l.Atom.Pred].Arity() != len(l.Atom.Args) {
				return fmt.Errorf("ivm: update uses %s with arity %d and the program with %d", l.Atom.Pred, u.per[l.Atom.Pred].Arity(), len(l.Atom.Args))
			}
		}
	}
	if v.store == nil {
		return nil
	}
	if err := v.store.Err(); err != nil {
		return fmt.Errorf("ivm: %w", err)
	}
	// NaN/±Inf have no parseable literal syntax, so a state transfer
	// containing one could never load. Reject before touching memory. (A
	// record being folded was vetted by the node that cut it; a rule edit
	// carries no update.)
	if u == nil {
		return nil
	}
	if fact, bad := u.nonFinite(); bad {
		return fmt.Errorf("ivm: %s contains a non-finite float, which cannot be logged replayably; store-bound views reject NaN and ±Inf", fact)
	}
	return nil
}

// mergeable reports whether the admitted updates can be ⊎-merged: every
// predicate must be used with one arity across the whole batch (an
// Update.Merge of conflicting arities would panic in the relation
// layer).
func mergeable(reqs []*applyReq) bool {
	arity := make(map[string]int)
	for _, r := range reqs {
		if r.u == nil {
			return false // a record or a rule edit commits alone, at its own version
		}
		for pred, rel := range r.u.per {
			a := rel.Arity()
			if a < 0 {
				continue
			}
			if prev, ok := arity[pred]; ok && prev != a {
				return false
			}
			arity[pred] = a
		}
	}
	return true
}

// runSequentialLocked applies each request's update individually, in
// arrival order, producing one group per request. WAL records are
// appended in the same order and versions are assigned in the same
// order (base+1, base+2, ... for the successful groups), so log order
// equals application order equals publish order.
func (v *Views) runSequentialLocked(admitted []*applyReq, next map[string]*relation.Versioned, base uint64, cut bool) []*applyGroup {
	groups := make([]*applyGroup, 0, len(admitted))
	ver := base
	for _, r := range admitted {
		var g *applyGroup
		if r.rec != nil {
			g = v.foldGroupLocked(r, next, ver+1)
		} else {
			g = v.maintainGroupLocked([]*applyReq{r}, r.u, next, ver+1, cut)
		}
		if g.cs != nil {
			ver++
			// Snapshot the relation map as of this group so its version
			// publishes exactly this group's state; later groups keep
			// evolving next.
			g.ver = v.versionLocked(maps.Clone(next), ver)
		}
		groups = append(groups, g)
	}
	return groups
}

// maintainGroupLocked runs one engine pass for reqs — u's, or the rule
// edit of its one request — pushes the committed deltas onto next and cuts
// the group's commit record at version: the one place a record is cut (a
// rule edit's also carries the program it leaves). A failed pass leaves
// engine and next as they were and returns a group with no change set
// (g.cs == nil) and the engine's error; the caller owns g.ver.
func (v *Views) maintainGroupLocked(reqs []*applyReq, u *Update, next map[string]*relation.Versioned, version uint64, cut bool) *applyGroup {
	g := &applyGroup{reqs: reqs}
	var per map[string]*relation.Relation
	var program *string
	if edit := reqs[0].edit; edit == nil {
		per, g.err = v.eng.Apply(u.deltas())
	} else if per, g.err = edit(v.eng); g.err == nil {
		// Regenerated from the edited rules, the text the record, Save and
		// checkpoints carry is the views as they now are (fact clauses
		// dropped lose nothing: base facts live in the database). The
		// record is stamped with what maintains them now.
		v.programSrc = v.eng.Program().String()
		program = &v.programSrc
		v.strategy = regime(v.eng)
		v.refreshEmptiesLocked(next)
	}
	if g.err != nil {
		return g
	}
	v.pushDeltasLocked(next, v.eng.CommittedDeltas())
	g.cs = v.changeSetLocked(per)
	g.cs.version = version
	g.rec.Version = version
	// A coalesced batch is one record, so it carries every caller's
	// idempotency key; recovery and followers re-seed all of them.
	g.rec.Keys = reqs[0].keys
	if len(reqs) > 1 {
		g.rec.Keys = nil
		for _, r := range reqs {
			g.rec.Keys = append(g.rec.Keys, r.keys...)
		}
	}
	if cut {
		if g.rec, g.err = storage.EncodeCommitRecord(version, g.rec.Keys, program, v.cfg.stamp(v.strategy), v.eng.CommittedDeltas()); g.err != nil {
			g.err = fmt.Errorf("ivm: update applied in memory but its commit record could not be cut: %w", g.err)
		}
	}
	return g
}

// changeSetLocked wraps the visible deltas an engine operation returned,
// less the hidden predicates, as the operation's ChangeSet.
func (v *Views) changeSetLocked(per map[string]*relation.Relation) *ChangeSet {
	for pred := range v.hidden {
		delete(per, pred)
	}
	return &ChangeSet{perPred: per}
}

// pushDeltasLocked folds a commit's deltas — already merged into the
// engine's storage — onto the in-progress version map: each links onto
// its predicate's version, unless the engine has a new base for it. The
// rows a link's compaction copied go on the next version's trace.
func (v *Views) pushDeltasLocked(next map[string]*relation.Versioned, deltas map[string]*relation.Relation) {
	for pred, d := range deltas {
		if st := v.eng.Stored(pred); st != nil {
			next[pred] = st.Publish(next[pred], d)
			v.copied += next[pred].Copied()
		}
	}
}

// refreshEmptiesLocked republishes, empty, the emptied relations a rule
// edit gave another arity (the arity its rules now read or derive them
// at), so that the edit's Δ, pushed next, lands at the engine's arity.
func (v *Views) refreshEmptiesLocked(next map[string]*relation.Versioned) {
	for pred, vr := range next {
		if r := v.eng.Stored(pred); r != nil && vr.Reader().Arity() != r.Arity() {
			next[pred] = relation.NewVersioned(relation.New(r.Arity()))
		}
	}
}

// OnChange subscribes fn to changes of pred ("" subscribes to every
// derived predicate) — the paper's active-database application (Section
// 1: "a rule may fire when a particular tuple is inserted into a view").
// fn runs on the maintainer goroutine after each successful
// Apply/AddRule/RemoveRule batch that changed pred, with the inserted
// and deleted rows (deleted counts reported positive), each in tuple
// order. The two slices are the ChangeSet's own — sorted once and shared
// with every other handler, the batch's callers and the serving layer —
// so a handler must not modify them (copy first to reorder). Handlers fire
// after the new version is published and outside every Views lock, so a
// slow handler never delays readers or snapshots — but before the
// batch's Apply calls return, so an Apply still observes its own
// handlers completed. Handlers may read the Views (they see the
// just-published state) but must not Apply, AddRule, or RemoveRule from
// within the callback: the maintainer is running the handler, so a
// nested write deadlocks. fn rides the OnCommit feed: it is a commit
// handler that reads pred's part of each ChangeSet, so a predicate no
// handler watches is never sorted.
func (v *Views) OnChange(pred string, fn func(pred string, inserted, deleted []Row)) {
	v.OnCommit(func(cs *ChangeSet) {
		if pred == "" {
			cs.Each(fn)
		} else if p := cs.changes(pred); p != nil {
			ins, del := p.split()
			fn(pred, ins, del)
		}
	})
}

// OnCommit subscribes fn to every committed maintenance batch: fn
// receives the batch's whole ChangeSet, stamped with the version it
// published (ChangeSet.Version), including change sets with no visible
// deltas (a batch always publishes). Like OnChange handlers, commit
// handlers run on the maintainer goroutine after publish and outside
// every Views lock, in commit order — under an Apply-only workload the
// versions fn observes are nondecreasing — and must not Apply or edit
// rules from within the callback. OnCommit is the feed the serving
// layer's subscription fan-out drains (internal/server).
func (v *Views) OnCommit(fn func(cs *ChangeSet)) {
	v.handlersMu.Lock()
	defer v.handlersMu.Unlock()
	v.handlers = append(v.handlers, fn)
}

// CommitRecord is one committed maintenance pass — the version it
// published, the idempotency keys it covered, and the signed
// per-predicate deltas it committed. It is defined once, in
// internal/storage: the bytes the WAL logs for a commit are the bytes a
// replication 'D' record ships.
type CommitRecord = storage.CommitRecord

// CommitEvent is one published version as the history holds it: the
// commit's record, its trace and its ChangeSet — the one its Apply
// callers and OnCommit handlers were handed, which a subscription resumed
// from an earlier version reads. A rule edit's record carries the program
// it leaves (CommitRecord.Program), so every commit folds.
type CommitEvent struct {
	CommitRecord
	Trace   *ApplyTrace
	Changes *ChangeSet
}

// ApplyTrace is the account of the commit that published a version, frozen
// at publish: Views.Trace reads the current version's and each CommitEvent
// carries its commit's. It is shared; do not modify it. DESIGN.md §8 says
// what each field holds and where its clock is read. A follower's trace of
// a version it folded holds the record's keys, when it was received
// (Enqueued), its fold, and when the node that shipped it published it,
// so a version's traces on a primary and its followers line up.
type ApplyTrace struct {
	Version          uint64              `json:"version"`
	Keys             []string            `json:"keys,omitempty"`
	Strategy         Strategy            `json:"strategy"`
	Stats            dred.Stats          `json:"stats"`
	Enqueued         time.Time           `json:"enqueued"`
	Wait             time.Duration       `json:"wait_ns"`
	Strata           []dred.StratumTrace `json:"strata,omitempty"`
	Fold             time.Duration       `json:"fold_ns"`
	PrimaryPublished time.Time           `json:"primary_published"`
	RowsCopied       int                 `json:"rows_copied"`
	WALAppend        time.Duration       `json:"wal_append_ns"`
	FsyncWait        time.Duration       `json:"fsync_wait_ns"`
	Published        time.Time           `json:"published"`
}

// notify hands a change set to the OnCommit handlers (OnChange's among
// them). Called on the maintainer goroutine after publish, with no Views
// lock held; the handler list is read under handlersMu so registrations
// are race-free.
func (v *Views) notify(cs *ChangeSet) {
	v.handlersMu.Lock()
	handlers := v.handlers
	v.handlersMu.Unlock()
	for _, fn := range handlers {
		fn(cs)
	}
}

// ApplyScript parses a delta script (`+link(a,b). -link(b,c).`) and
// applies it.
func (v *Views) ApplyScript(src string) (*ChangeSet, error) {
	u, err := ParseUpdate(src)
	if err != nil {
		return nil, err
	}
	return v.Apply(u)
}

// setHidden installs the hidden-predicate set of freshly built views,
// before they are used concurrently.
func (v *Views) setHidden(preds []string) {
	if len(preds) == 0 {
		return
	}
	v.hidden = make(map[string]bool, len(preds))
	for _, p := range preds {
		v.hidden[p] = true
	}
}

// hiddenLocked returns the sorted hidden-predicate list (lock held).
func (v *Views) hiddenLocked() []string {
	hidden := make([]string, 0, len(v.hidden))
	for pred := range v.hidden {
		hidden = append(hidden, pred)
	}
	sort.Strings(hidden)
	return hidden
}

// Trace returns the account of the commit that published the current
// version. The version carries it, so the read is lock-free and race-free
// against concurrent Apply.
func (v *Views) Trace() *ApplyTrace { return v.cur.Load().trace }

// Metrics returns an immutable snapshot of every metric the views'
// engine has recorded: cumulative counters (counting_*, dred_*, eval_*,
// sched_*), gauges, and duration histograms (docs/SERVING.md lists
// every series).
// Counters are cumulative across the views' lifetime, unlike the
// per-version Trace. The underlying instruments are
// atomic, so the snapshot is race-free and lock-free.
func (v *Views) Metrics() MetricsSnapshot {
	// Refresh the process-wide relation gauges so the snapshot reflects
	// every hash index lazily built and every row published since the
	// last call; rows copied ÷ rows linked is the publish amplification.
	v.reg.Gauge("relation_indexes_built").Set(relation.IndexesBuilt())
	linked, copied := relation.VersionRows()
	v.reg.Gauge("relation_version_rows_linked").Set(linked)
	v.reg.Gauge("relation_version_rows_copied").Set(copied)
	return v.reg.Snapshot()
}
