package ivm

import (
	"reflect"

	"ivm/internal/core/dred"
	"ivm/internal/sched"
)

// The history (DESIGN.md §13) is the views' one window of recent commits:
// ApplyIdempotent dedups against its keys — counting and DRed are only
// right if every Δ is applied exactly once, so a client that cannot tell
// "never committed" from "committed, ack lost" retries under its key and
// learns where its write landed — and the serving layer replicates,
// answers /v1/trace and resumes subscriptions from it. It holds the newest
// n commits and at most 512 bytes of records, traces and ChangeSets for
// each: past that the oldest shed all three but keep their version and
// keys, so a key dedups for exactly n commits whatever the records weigh.
// Views start it on demand, and recovery replays the WAL's keys into it.

// DefaultHistory is how many commits a history holds when WithHistory is
// not given. It must comfortably exceed the commits that can land
// between a client's first attempt and its last retry; past it, a retry
// re-applies.
const DefaultHistory = 1024

// historyRecordBytes is the history's byte budget per commit it holds: a
// record carries its committed deltas (typically 0.1–6 KB), and its
// ChangeSet the visible ones again as rows.
const historyRecordBytes = 512

// MaxIdempotencyKeyLen bounds key length: keys are logged inside every
// WAL record and held in memory while their commit is in the history.
// The serving layer rejects longer Idempotency-Key headers up front with
// the same bound.
const MaxIdempotencyKeyLen = 256

// History returns the views' window of recent commits, starting it at the
// current version if none runs yet; from then on every commit enters it
// before the Apply calls it acknowledges return. An entry whose Trace and
// Changes are nil holds its version and keys only: the byte budget shed
// it, or recovery replayed it from the WAL, which still holds its record.
func (v *Views) History() *sched.Window[CommitEvent] {
	if h := v.history.Load(); h != nil {
		return h
	}
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return v.historyLocked()
}

// historyLocked is History with wmu held: the next commit published is
// the first a new history holds.
func (v *Views) historyLocked() *sched.Window[CommitEvent] {
	if h := v.history.Load(); h != nil {
		return h
	}
	n := v.cfg.history
	if n <= 0 {
		n = DefaultHistory
	}
	v.keys = make(map[string]uint64)
	h := sched.NewWindow(n, n*historyRecordBytes, commitBytes, shedCommit, v.forget)
	h.Seed(v.cur.Load().id)
	v.history.Store(h)
	return h
}

// remember appends a fully committed request to the history and indexes
// its keys. Only the maintainer touches the index.
func (v *Views) remember(h *sched.Window[CommitEvent], r *applyReq) {
	ev := CommitEvent{CommitRecord: r.commit, Trace: r.ver.trace, Changes: r.cs}
	if r.recovered {
		ev = shedCommit(ev)
	}
	v.mHistBytes.Set(int64(h.Append(ev.Version, ev)))
	for _, k := range ev.Keys {
		v.keys[k] = ev.Version
	}
	v.mIdemEntries.Set(int64(len(v.keys)))
}

// forget takes the keys of a commit that leaves the history out of the
// index, unless a later commit carries them.
func (v *Views) forget(e sched.WindowEntry[CommitEvent]) {
	for _, k := range e.Item.Keys {
		if v.keys[k] == e.Version {
			delete(v.keys, k)
		}
	}
}

// commitBytes is what a history entry holds of its record, trace and
// ChangeSet: the ChangeSet itself, its map (a header and Go's smallest
// group of slots) and what its Δ relations hold beside the stored rows
// they borrow (relation.Relation.Held), unsorted: only a subscriber's
// delivery sorts it (E50).
func commitBytes(ev CommitEvent) int {
	n := len(ev.Payload)
	if ev.Trace != nil {
		n += int(reflect.TypeFor[ApplyTrace]().Size()) + len(ev.Trace.Strata)*int(reflect.TypeFor[dred.StratumTrace]().Size())
	}
	if ev.Changes != nil {
		n += int(reflect.TypeFor[ChangeSet]().Size()) + 256
		for _, rel := range ev.Changes.perPred {
			n += rel.Held()
		}
	}
	return n
}

// shedCommit is ev less its payload, trace and ChangeSet: its version and
// keys.
func shedCommit(ev CommitEvent) CommitEvent {
	return CommitEvent{CommitRecord: CommitRecord{Version: ev.Version, Keys: ev.Keys}}
}
