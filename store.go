package ivm

import (
	"fmt"

	"ivm/internal/storage"
)

// RecoveryInfo describes what OpenStore found in the store directory:
// the store's own recovery report (Epoch, Replayed, SkippedStale,
// TornTail, CorruptRecords — nonzero only under WithWALRepair —
// BadSnapshots, ...) plus whether the views had to be initialized.
type RecoveryInfo struct {
	storage.RecoveryInfo
	// Initialized reports that the store was empty and init() built the
	// initial views (checkpointed as epoch 1).
	Initialized bool
}

func (ri RecoveryInfo) String() string {
	if ri.Initialized {
		return "initialized (epoch 1)"
	}
	s := fmt.Sprintf("epoch=%d replayed=%d", ri.Epoch, ri.Replayed)
	if ri.SkippedStale > 0 {
		s += fmt.Sprintf(" skipped_stale=%d", ri.SkippedStale)
	}
	if ri.TornTail {
		s += " torn_tail"
	}
	if ri.CorruptRecords > 0 {
		s += fmt.Sprintf(" corrupt_records=%d", ri.CorruptRecords)
	}
	if ri.BadSnapshots > 0 {
		s += fmt.Sprintf(" bad_snapshots=%d", ri.BadSnapshots)
	}
	return s
}

// OpenStore opens (creating if needed) the crash-recovery store in dir
// and restores views from it: the newest valid snapshot is loaded and the
// WAL's commit records from its epoch are folded onto it
// (ApplyCommitRecord). When the store is empty, init is called to build
// the initial views (e.g. from program and fact files) and the result is
// immediately checkpointed. The returned views are store-bound: every
// Apply and rule edit is durably WAL-logged before it returns — an edit's
// record carries the program it leaves, so replay installs it and folds
// the edit's Δ — and Sync checkpoints on demand. Options apply to the
// recovered views (and WithWALRepair to recovery); init builds its views
// with whatever options it chooses. A snapshot opens under any strategy
// and semantics — its stored counts as they are under the ones it was
// written under, else rematerialized — but a WAL record folds only under
// the ones it was cut by: a store closed without a checkpoint and opened
// under others is refused with a *DivergenceError naming both.
func OpenStore(dir string, init func() (*Views, error), opts ...Option) (*Views, RecoveryInfo, error) {
	cfg := newConfig(opts)
	st, err := storage.OpenStore(dir, storage.StoreOptions{RepairCorruptWAL: cfg.walRepair})
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{RecoveryInfo: st.Recovery()}
	fail := func(err error) (*Views, RecoveryInfo, error) {
		st.Close()
		return nil, info, err
	}
	var v *Views
	if state, ok := st.Snapshot(); ok {
		// The views start at the version the checkpoint was published as,
		// and each WAL record republishes its own: the commit order
		// survives the crash, so a follower resumes across it.
		if v, err = viewsFromState(state, opts); err != nil {
			return fail(err)
		}
		// Replay happens before the views are store-bound, so the
		// records are not re-appended to the WAL they came from.
		// Otherwise it is the path a follower runs: each record folds
		// and publishes its version.
		for i, rec := range st.Records() {
			if rec.Version > v.cur.Load().id+1 {
				// A version hole before this record: its predecessor's
				// append failed (the caller was told) or was repaired
				// away. The surviving record is still authoritative for
				// its own version, so seed up to its predecessor rather
				// than replay it under the wrong number.
				v.SeedVersion(rec.Version - 1)
			}
			if _, err := v.applyCommitRecord(rec, true); err != nil {
				return fail(fmt.Errorf("ivm: replaying WAL record %d: %w", i+1, err))
			}
		}
	} else {
		if init == nil {
			return fail(fmt.Errorf("ivm: store %s is empty and no init function was provided", dir))
		}
		v, err = init()
		if err != nil {
			return fail(err)
		}
		if v.store != nil {
			return fail(fmt.Errorf("ivm: init returned views already bound to a store"))
		}
		info.Initialized = true
	}
	v.wmu.Lock()
	err = v.bindStoreLocked(st, info.Initialized)
	v.wmu.Unlock()
	if err != nil {
		return fail(err)
	}
	return v, info, nil
}

// bindStoreLocked makes the views store-bound (write lock held); on error
// they are left unbound.
func (v *Views) bindStoreLocked(st *storage.Store, initialized bool) (err error) {
	st.AttachMetrics(v.reg)
	v.store = st
	defer func() {
		if err != nil {
			v.store = nil
		}
	}()
	if initialized {
		// Checkpoint immediately so a snapshot always exists: from here
		// on every WAL record has an epoch-stamped snapshot beneath it.
		if err := v.checkpointLocked(); err != nil {
			return err
		}
	}
	// Restore the fencing epoch (DESIGN.md §15). A store from before the
	// epoch was introduced — or a fresh one — reads 0 and is stamped as
	// epoch 1, the never-promoted primary, so the sidecar always exists
	// after the first boot.
	fence, err := storage.LoadFenceEpoch(st.Dir())
	if err != nil {
		return err
	}
	if fence == 0 {
		fence = 1
		if err := storage.SaveFenceEpoch(st.Dir(), fence); err != nil {
			return err
		}
	}
	v.fence.Store(fence)
	return nil
}

// checkpointLocked writes the engine's full state — base and derived
// relations with their counts, program text, hidden set — as a new
// snapshot epoch of the store, stamped with the published version (write
// lock held).
func (v *Views) checkpointLocked() error {
	return v.store.CheckpointAt(v.state(v.cur.Load()))
}

// Sync checkpoints store-bound views: the full state (base + derived
// relations, program text, hidden set) is written as a new snapshot
// epoch — temp file fsync, rename, directory fsync — and only then is
// the WAL truncated, so a crash anywhere in the sequence never
// double-applies a delta.
func (v *Views) Sync() error {
	if v.store == nil {
		return fmt.Errorf("ivm: Sync requires store-bound views (use OpenStore)")
	}
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return v.checkpointLocked()
}

// Store reports whether the views are bound to a crash-recovery store
// and, if so, its directory.
func (v *Views) Store() (dir string, ok bool) {
	if v.store == nil {
		return "", false
	}
	return v.store.Dir(), true
}

// FenceEpoch returns the cluster leadership fencing epoch these views
// operate under. A fresh primary is epoch 1; every follower promotion
// raises it by one. Replication stamps the epoch on every shipped
// record, and both ends reject traffic from an older epoch — the
// split-brain guard (see DESIGN.md §15). Lock-free.
func (v *Views) FenceEpoch() uint64 {
	if e := v.fence.Load(); e != 0 {
		return e
	}
	return 1
}

// SetFenceEpoch raises the fencing epoch to e. Lower-or-equal values
// are ignored (the epoch is monotonic; returns nil), so mirroring a
// leader's epoch and promotion can share this path. For store-bound
// views the new epoch is persisted durably before it becomes visible:
// a node that crashes right after a promotion still comes back fenced
// correctly.
func (v *Views) SetFenceEpoch(e uint64) error {
	for {
		cur := v.fence.Load()
		if e <= cur || (cur == 0 && e <= 1) {
			return nil
		}
		v.wmu.Lock()
		if v.store != nil {
			if err := storage.SaveFenceEpoch(v.store.Dir(), e); err != nil {
				v.wmu.Unlock()
				return err
			}
		}
		swapped := v.fence.CompareAndSwap(cur, e)
		v.wmu.Unlock()
		if swapped {
			return nil
		}
	}
}

// Drain blocks until every Apply submitted before the call has
// completed (maintained, logged, published, and its handlers run) and
// the update scheduler is idle. Drain does not block new Apply calls —
// the graceful-shutdown discipline is: stop producing updates, Drain,
// then Sync/Close (or use Shutdown, which does all three store steps).
func (v *Views) Drain() { v.comb.Quiesce() }

// Shutdown is the clean-stop sequence for store-bound views: drain the
// update scheduler (every in-flight Apply completes and is durably
// logged), checkpoint the full state as a new snapshot epoch, and close
// the WAL. After Shutdown, reads still serve the final published
// version but Apply/Sync fail with ErrStoreClosed. Views without a
// store just drain; shutting down twice is a no-op.
func (v *Views) Shutdown() error {
	v.Drain()
	v.wmu.Lock()
	defer v.wmu.Unlock()
	if v.store == nil || v.store.Err() == storage.ErrStoreClosed {
		return nil
	}
	if err := v.checkpointLocked(); err != nil {
		// Close anyway: the WAL already holds every acked apply, so
		// recovery replays to the same state; the checkpoint was only an
		// optimization. Surface the checkpoint error over Close's.
		v.store.Close()
		return fmt.Errorf("ivm: shutdown checkpoint failed (WAL still authoritative): %w", err)
	}
	return v.store.Close()
}

// Close flushes and closes the store's WAL. It does not checkpoint —
// call Sync first for a clean shutdown; skipping it is safe and simply
// leaves recovery to replay the WAL. The views stay store-bound: a
// later Apply or Sync fails with ErrStoreClosed rather than silently
// continuing in memory without durability. Views without a store close
// as a no-op, and closing twice is a no-op.
func (v *Views) Close() error {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	if v.store == nil {
		return nil
	}
	return v.store.Close()
}
