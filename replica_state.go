package ivm

// Replica-state transfer: the full-state form of a Views that a
// replication follower uses to bootstrap (or resynchronize) before
// tailing delta records. The state ships as program text plus a facts
// delta script — the same textual forms the WAL and checkpoints already
// round-trip — so a follower rebuilding from it converges bit-identical
// to the primary at the stamped version.

import (
	"fmt"

	"ivm/internal/storage"
)

// ReplicaState is everything a follower needs to reproduce a primary's
// Views at one version: the program, the stored base facts (as an
// insert-only delta script, counts included), the hidden-predicate set,
// and the engine configuration that must match for derived state to be
// bit-identical. It is the payload of a replication 'S' record, defined
// beside that record's codec.
type ReplicaState = storage.ReplState

// ReplicaState captures the snapshot's full state for replication
// transfer. Facts covers exactly the non-derived stored relations; the
// derived relations are reproduced by materializing Program over them.
func (s *Snapshot) ReplicaState() ReplicaState {
	return ReplicaState{
		Program:   s.v.programSrc,
		Hidden:    s.views.hiddenLocked(),
		Facts:     s.v.baseFacts(1).String(),
		Strategy:  s.views.cfg.strategy.String(),
		Semantics: s.views.cfg.semantics.String(),
	}
}

// baseFacts is the version's non-derived stored rows as an update: each
// row's count times sign, so -1 makes the update that deletes them all.
func (vv *version) baseFacts(sign int64) *Update {
	derived := vv.prog.DerivedPreds()
	u := NewUpdate()
	for pred, vr := range vv.rels {
		if derived[pred] {
			continue
		}
		for _, row := range vr.Flat().SortedRows() {
			u.InsertTuple(pred, row.Tuple, sign*row.Count)
		}
	}
	return u
}

// replicaConfigOptions maps a ReplicaState's engine configuration back
// to materialization options.
func replicaConfigOptions(st ReplicaState) ([]Option, error) {
	strategy, err := ParseStrategy(st.Strategy)
	if err != nil {
		return nil, fmt.Errorf("ivm: replica state: %w", err)
	}
	sem, err := ParseSemantics(st.Semantics)
	if err != nil {
		return nil, fmt.Errorf("ivm: replica state: %w", err)
	}
	return []Option{WithStrategy(strategy), WithSemantics(sem)}, nil
}

// ViewsFromReplicaState materializes fresh Views from a transferred
// state. extra options are applied first (tracing, idempotency window, ...);
// the state's strategy and semantics are applied last, since derived
// state is bit-identical to the sender's only under the same engine
// configuration.
func ViewsFromReplicaState(st ReplicaState, extra ...Option) (*Views, error) {
	cfgOpts, err := replicaConfigOptions(st)
	if err != nil {
		return nil, err
	}
	d := NewDatabase()
	if err := d.Load(st.Facts); err != nil {
		return nil, fmt.Errorf("ivm: loading replica state facts: %w", err)
	}
	v, err := d.Materialize(st.Program, append(append([]Option(nil), extra...), cfgOpts...)...)
	if err != nil {
		return nil, err
	}
	v.setHidden(st.Hidden)
	return v, nil
}

// ResetToReplicaState replaces the views' stored facts with st's,
// wholesale, and seeds the published version to version — a follower's
// resynchronization path when it is too far behind to bridge with
// deltas. The replacement runs as one Apply (delete every stored base
// row, insert every transferred row, net-merged), so readers observe a
// single atomic step from the old state to the new one; the engine
// re-derives the views incrementally from the net difference. The
// program must be unchanged: a program edit changes the rule set the
// engine was compiled for, so the caller must rebuild with
// ViewsFromReplicaState instead.
func (v *Views) ResetToReplicaState(st ReplicaState, version uint64) error {
	if st.Program != v.ProgramSource() {
		return fmt.Errorf("ivm: replica state carries a different program; rebuild the views instead of resetting")
	}
	incoming, err := ParseUpdate(st.Facts)
	if err != nil {
		return fmt.Errorf("ivm: parsing replica state facts: %w", err)
	}
	u := v.cur.Load().baseFacts(-1)
	u.Merge(incoming)
	if _, err := v.Apply(u); err != nil {
		return fmt.Errorf("ivm: applying replica state reset: %w", err)
	}
	v.SeedVersion(version)
	return nil
}

// CommittedRecordsAfter returns the WAL's commit records stamped with
// versions greater than fromExcl, in version order — the replication
// backfill source when a follower's resume point has aged out of the
// in-memory window. ok is false for views without a store (nothing
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
