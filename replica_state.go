package ivm

// Full-state transfer: a Views at one version as one state record, which
// checkpoints, Save and replication 'S' records carry. Restoring one loads
// the stored counts it holds; nothing is re-derived.

import (
	"fmt"
	"maps"

	"ivm/internal/core/dred"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/storage"
)

// ReplicaState is everything that reproduces a Views at one version: the
// program, the hidden-predicate set, the version, the configuration, and
// every stored row, base and derived, with its count. It is the state
// record a replication 'S' record ships and a checkpoint holds.
type ReplicaState = storage.State

// ReplicaState captures the snapshot's full state for replication
// transfer.
func (s *Snapshot) ReplicaState() ReplicaState { return s.views.state(s.v) }

// state is the state record of version vv.
func (v *Views) state(vv *version) storage.State {
	db := eval.NewDB()
	for pred, vr := range vv.rels {
		db.Put(pred, vr.Flat())
	}
	return storage.State{Version: vv.id, Engine: v.cfg.stamp(vv.trace.Strategy), Config: v.cfg.stamp(v.cfg.strategy),
		Program: vv.programSrc, Hidden: v.hiddenLocked(), DB: db}
}

// ViewsFromReplicaState builds Views from a transferred state: extra
// options (tracing, history, ...), then the strategy and
// semantics the state was stored under. The views take st's relations for
// their own; the frozen ones of Snapshot.ReplicaState are shared.
func ViewsFromReplicaState(st ReplicaState, extra ...Option) (*Views, error) {
	return viewsFromState(st, append(extra[:len(extra):len(extra)],
		WithStrategy(Strategy(st.Config>>2)), WithSemantics(Semantics(st.Config>>1&1))))
}

// viewsFromState is the one restore of a state record, published once at
// its version. Under the configuration its stamp names, its relations are
// the engine's storage and no rule is evaluated; under another, its base
// relations are materialized.
func viewsFromState(st storage.State, opts []Option) (*Views, error) {
	res, err := parser.Parse(st.Program)
	if err != nil {
		return nil, err
	}
	cfg, reg := newConfig(opts), metrics.NewRegistry()
	var eng *dred.Engine
	if dcfg, err := cfg.engineConfig(reg); err == nil {
		if e, err := dred.Load(res.Program, st.DB, dcfg); err == nil && cfg.stamp(regime(e)) == st.Engine {
			eng = e
		}
	}
	if eng == nil {
		base, derived := eval.NewDB(), res.Program.DerivedPreds()
		for _, pred := range st.DB.Preds() {
			if !derived[pred] {
				base.Put(pred, st.DB.Get(pred))
			}
		}
		reg = metrics.NewRegistry()
		if eng, err = cfg.materialize(res.Program, base, reg); err != nil {
			return nil, err
		}
	}
	return newViews(cfg, reg, eng, st.Program, st.Hidden, max(st.Version, 1)), nil
}

// ResetToReplicaState moves the views to st wholesale, a follower's resync
// when it is too far behind to bridge with deltas: the difference folds as
// one commit record stamped st.Version, carrying st's program when it is
// not the views' own — one atomic publish, no rule evaluated. Views of
// another configuration are refused with a *DivergenceError and nothing
// applied; store-bound views checkpoint the result.
func (v *Views) ResetToReplicaState(st ReplicaState) error {
	v.wmu.Lock()
	cs, err := v.resetLocked(st)
	v.wmu.Unlock()
	if cs != nil {
		v.notify(cs)
	}
	return err
}

// resetLocked folds and publishes the reset (wmu held).
func (v *Views) resetLocked(st ReplicaState) (cs *ChangeSet, err error) {
	preds := v.eng.Preds()
	for _, pred := range st.DB.Preds() {
		if v.eng.Stored(pred) == nil {
			preds = append(preds, pred)
		}
	}
	deltas := make(map[string]*relation.Relation)
	for _, pred := range preds {
		var stored relation.Reader
		if r := v.eng.Stored(pred); r != nil && !r.Empty() {
			stored = r
		}
		incoming := st.DB.Get(pred)
		switch {
		case incoming == nil || incoming.Empty():
			if stored == nil {
				continue
			}
			incoming = relation.New(stored.Arity())
		case stored == nil:
			stored = relation.New(incoming.Arity())
		case stored.Arity() != incoming.Arity():
			return nil, fmt.Errorf("ivm: replica state holds %s at arity %d and these views at %d", pred, incoming.Arity(), stored.Arity())
		}
		if d := relation.Diff(stored, incoming); !d.Empty() {
			deltas[pred] = d
		}
	}
	var program *string
	if st.Program != v.programSrc {
		program = &st.Program
	}
	rec, err := storage.EncodeCommitRecord(st.Version, nil, program, st.Engine, deltas)
	if err == nil {
		deltas, cs, err = v.foldRecordLocked(rec)
	}
	if err != nil {
		return nil, err
	}
	next := maps.Clone(v.cur.Load().rels)
	v.refreshEmptiesLocked(next)
	v.pushDeltasLocked(next, deltas)
	cs.version = st.Version
	v.installLocked(v.versionLocked(next, st.Version))
	if v.store != nil {
		err = v.checkpointLocked()
	}
	return cs, err
}

// CommittedRecordsAfter returns the WAL's commit records stamped with
// versions greater than fromExcl, in version order — the replication
// backfill source when a follower's resume point has aged out of the
// history. ok is false for views without a store (nothing
// durable to read). The caller must check the returned sequence is
// contiguous from its resume point and fall back to a full state
// transfer when it is not.
func (v *Views) CommittedRecordsAfter(fromExcl uint64) (recs []CommitRecord, ok bool, err error) {
	v.wmu.Lock()
	st := v.store
	v.wmu.Unlock()
	if st == nil {
		return nil, false, nil
	}
	recs, err = st.TailRecords(fromExcl)
	return recs, true, err
}
