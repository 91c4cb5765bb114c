package ivm

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ivm/internal/relation"
)

// Versions must survive a checkpoint + restart: the durable commit
// order is what replication aligns on across a primary crash.
func TestVersionsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Views {
		v, _, err := OpenStore(dir, func() (*Views, error) {
			d := NewDatabase()
			d.MustLoad("link(a,b).")
			return d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	v := open()
	if got := v.Snapshot().Version(); got != 1 {
		t.Fatalf("initial version = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Apply(NewUpdate().Insert("link", "b", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := v.Snapshot().Version()
	if want != 4 {
		t.Fatalf("version after 3 applies = %d", want)
	}
	// Close without checkpointing: recovery must replay the WAL records
	// and republish their original versions.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v = open()
	if got := v.Snapshot().Version(); got != want {
		t.Fatalf("version after WAL-replay recovery = %d, want %d", got, want)
	}

	// Checkpoint + clean shutdown: the snapshot's base version carries
	// the counter with no WAL left to replay.
	if _, err := v.Apply(NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	want = v.Snapshot().Version()
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v = open()
	defer v.Shutdown()
	if got := v.Snapshot().Version(); got != want {
		t.Fatalf("version after checkpointed recovery = %d, want %d", got, want)
	}
	// And the next apply continues the sequence.
	cs, err := v.Apply(NewUpdate().Insert("link", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Version() != want+1 {
		t.Fatalf("post-recovery apply published %d, want %d", cs.Version(), want+1)
	}
}

// The commit-record stream must be gapless and version-ordered, carry
// the deltas that reproduce each commit, and agree with the WAL tail
// byte for byte.
func TestOnCommitRecordStream(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad("link(a,b).")
		return d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Shutdown()

	h := v.History()
	base := v.Snapshot().Version()

	if _, err := v.Apply(NewUpdate().Insert("link", "b", "c")); err != nil {
		t.Fatal(err)
	}
	// An empty net update still commits a version and a record, so the
	// version sequence followers see is gapless.
	if _, err := v.Apply(NewUpdate()); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(NewUpdate().Delete("link", "b", "c")); err != nil {
		t.Fatal(err)
	}

	var recs []CommitEvent
	for ver := base + 1; ; ver++ {
		ev, ok := h.At(ver)
		if !ok {
			break
		}
		recs = append(recs, ev)
	}
	if len(recs) != 3 {
		t.Fatalf("the history holds %d commit records, want 3: %+v", len(recs), recs)
	}
	for i, rec := range recs {
		if rec.Version != base+uint64(i)+1 {
			t.Fatalf("record %d version = %d, want %d", i, rec.Version, base+uint64(i)+1)
		}
		if _, edit := rec.Program(); edit {
			t.Fatalf("record %d of an apply carries a program", i)
		}
		if rec.Trace.Version != rec.Version || rec.Trace.Published.IsZero() {
			t.Fatalf("record %d has trace %+v", i, rec.Trace)
		}
	}
	const header = 12 // a keyless record's payload before its deltas
	if len(recs[0].Payload) <= header || len(recs[1].Payload) != header || len(recs[2].Payload) <= header {
		t.Fatalf("payloads: %x", [][]byte{recs[0].Payload, recs[1].Payload, recs[2].Payload})
	}

	// The WAL-backed backfill source returns the same records.
	tail, ok, err := v.CommittedRecordsAfter(base)
	if err != nil || !ok {
		t.Fatalf("CommittedRecordsAfter: ok=%v err=%v", ok, err)
	}
	if len(tail) != 3 {
		t.Fatalf("WAL tail has %d records, want 3", len(tail))
	}
	for i := range tail {
		if tail[i].Version != recs[i].Version || !tail[i].HasDeltas() || !bytes.Equal(tail[i].Payload, recs[i].Payload) {
			t.Fatalf("tail record %d = %+v, commit record = %+v", i, tail[i], recs[i])
		}
	}
	// A caught-up follower gets nothing.
	tail, _, err = v.CommittedRecordsAfter(base + 3)
	if err != nil || len(tail) != 0 {
		t.Fatalf("caught-up tail: %v, %v", tail, err)
	}
}

func TestWaitForVersion(t *testing.T) {
	d := NewDatabase()
	d.MustLoad("link(a,b).")
	v, err := d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
	if err != nil {
		t.Fatal(err)
	}
	cur := v.Snapshot().Version()
	if !v.WaitForVersion(cur, time.Second) {
		t.Fatal("WaitForVersion failed for the current version")
	}
	if v.WaitForVersion(cur+1, 20*time.Millisecond) {
		t.Fatal("WaitForVersion reached an unpublished version")
	}
	done := make(chan bool, 1)
	go func() { done <- v.WaitForVersion(cur+1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := v.Apply(NewUpdate().Insert("link", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if !<-done {
		t.Fatal("WaitForVersion missed the publish")
	}
}

func TestReplicaStateRoundTrip(t *testing.T) {
	d := NewDatabase()
	d.MustLoad(`link(a,b). link(b,c). link(b,e) * 3. weight(a, 2).`)
	v, err := d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	snap := v.Snapshot()
	st := snap.ReplicaState()
	follower, err := ViewsFromReplicaState(st)
	if err != nil {
		t.Fatal(err)
	}
	follower.SeedVersion(snap.Version())
	assertViewsIdentical(t, snap, follower.Snapshot())

	// Resync: advance the primary, reset the follower to the new state.
	if _, err := v.Apply(NewUpdate().Delete("link", "a", "b").Insert("link", "e", "f")); err != nil {
		t.Fatal(err)
	}
	snap = v.Snapshot()
	if err := follower.ResetToReplicaState(snap.ReplicaState()); err != nil {
		t.Fatal(err)
	}
	assertViewsIdentical(t, snap, follower.Snapshot())

	// A reset across a program change installs the state's program with
	// its rows; one under another configuration is refused untouched.
	other, err := NewDatabase().Materialize("reach(X,Y) :- link(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.ResetToReplicaState(snap.ReplicaState()); err != nil {
		t.Fatal(err)
	}
	if other.ProgramSource() != v.ProgramSource() || other.Snapshot().Version() != snap.Version() {
		t.Fatalf("reset to %q at %d, want %q at %d", other.ProgramSource(), other.Snapshot().Version(), v.ProgramSource(), snap.Version())
	}
	for _, pred := range snap.Preds() {
		if got, want := fmt.Sprint(other.Rows(pred)), fmt.Sprint(snap.Rows(pred)); got != want {
			t.Fatalf("%s after the reset: %s, want %s", pred, got, want)
		}
	}
	dred, err := NewDatabase().Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).", WithStrategy(DRed))
	if err != nil {
		t.Fatal(err)
	}
	var div *DivergenceError
	if err := dred.ResetToReplicaState(snap.ReplicaState()); !errors.As(err, &div) || dred.Snapshot().Version() != 1 {
		t.Fatalf("a reset of DRed views to counting's state: %v, version %d", err, dred.Snapshot().Version())
	}
}

// assertViewsIdentical requires rows, counts, and version to agree
// between two snapshots across every predicate either side stores.
func assertViewsIdentical(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.Version() != got.Version() {
		t.Fatalf("versions differ: %d != %d", want.Version(), got.Version())
	}
	wp, gp := want.Preds(), got.Preds()
	if len(wp) != len(gp) {
		t.Fatalf("predicate sets differ: %v != %v", wp, gp)
	}
	for i, pred := range wp {
		if gp[i] != pred {
			t.Fatalf("predicate sets differ: %v != %v", wp, gp)
		}
		a, b := want.Rows(pred), got.Rows(pred)
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows != %d rows", pred, len(a), len(b))
		}
		for j := range a {
			if !a[j].Tuple.Equal(b[j].Tuple) || a[j].Count != b[j].Count {
				t.Fatalf("%s row %d: %v*%d != %v*%d", pred, j, a[j].Tuple, a[j].Count, b[j].Tuple, b[j].Count)
			}
		}
	}
}

// A rule edit ships as a record: one commit event at the edit's version,
// whose payload is a format-3 record carrying the program the edit left
// and its Δ, and which the WAL tail returns byte for byte — so a follower
// backfilled from the log folds it like any other commit.
func TestRuleEditShipsAsARecord(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad("link(a,b). link(b,c).")
		return d.Materialize("reach(X,Y) :- link(X,Y). reach(X,Y) :- link(X,Z), reach(Z,Y).",
			WithStrategy(DRed))
	}, WithStrategy(DRed))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Shutdown()

	h := v.History()
	base := v.Snapshot().Version()
	cs, err := v.AddRule("sym(X,Y) :- link(Y,X).")
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := h.At(base + 1)
	if _, hi, _ := h.Bounds(); !ok || hi != base+1 || cs.Version() != base+1 {
		t.Fatalf("the history holds %+v through version %d, want one commit at version %d", ev, hi, base+1)
	}
	if src, edit := ev.Program(); !edit || ev.Payload[0] != 3 || src != v.ProgramSource() {
		t.Fatalf("the edit's record: format %d, program %q (edit %v); want format 3 carrying %q", ev.Payload[0], src, edit, v.ProgramSource())
	}
	if !ev.HasDeltas() || !bytes.Contains(ev.Payload, []byte("sym")) {
		t.Fatalf("the edit's record does not carry its Δ: %x", ev.Payload)
	}
	tail, ok, err := v.CommittedRecordsAfter(base)
	if err != nil || !ok || len(tail) != 1 || !bytes.Equal(tail[0].Payload, ev.Payload) {
		t.Fatalf("WAL tail = %+v, ok=%v err=%v; want the shipped record, byte for byte", tail, ok, err)
	}
	want := v.Snapshot().Version()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, _, err := OpenStore(dir, nil, WithStrategy(DRed))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Shutdown()
	if got := v2.Snapshot().Version(); got != want || v2.ProgramSource() != v.ProgramSource() {
		t.Fatalf("after replaying the edit: version %d, program %q; want %d, %q", got, v2.ProgramSource(), want, v.ProgramSource())
	}
}

func TestSnapshotBaseVersionAccessor(t *testing.T) {
	// Sanity-check the storage plumbing end to end through Views.Sync.
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad("p(1).")
		return d.Materialize("q(X) :- p(X).")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Shutdown()
	for i := 0; i < 2; i++ {
		if _, err := v.Apply(NewUpdate().Insert("p", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	// The snapshot file on disk carries the published version.
	if _, err := filepath.Glob(filepath.Join(dir, "snapshot-*.gob")); err != nil {
		t.Fatal(err)
	}
	want := v.Snapshot().Version()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, _, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Shutdown()
	if got := v2.Snapshot().Version(); got != want {
		t.Fatalf("recovered version %d, want %d", got, want)
	}
}

// A restore under the configuration its state was stored under loads the
// stored counts and evaluates no rule — a follower's bootstrap, a
// checkpoint reopen with the WAL records folded onto it, a checkpoint
// reopen alone — and brings back every relation, an emptied one at the
// arity a rule edit gave it; the restored views then maintain like the
// ones they came from.
func TestRestoresEvaluateNothing(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad(`link(a,b). link(b,c). link(c,a). link(c,d).`)
		return d.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).
			reach(X,Y) :- link(X,Y).
			reach(X,Y) :- reach(X,Z), link(Z,Y).
			deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).`)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, script := range []string{`+q(1).`, `-q(1).`, `-link(c,d). +link(d,a).`} {
		if _, err := v.ApplyScript(script); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.AddRule(`r(X,Y) :- q(X,Y).`); err != nil { // q: emptied at arity 1, read at 2
		t.Fatal(err)
	}
	want := v.Snapshot()
	follower, err := ViewsFromReplicaState(want.ReplicaState())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // no checkpoint: the reopen folds the WAL
		t.Fatal(err)
	}
	reopened, info, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if info.Replayed != 4 {
		t.Fatalf("the reopen replayed %d records, want 4", info.Replayed)
	}
	loaded := reopenCheckpoint(t, want)
	defer loaded.Close()
	for name, r := range map[string]*Views{"follower": follower, "checkpoint+WAL": reopened, "checkpoint": loaded} {
		m := r.Metrics()
		for _, c := range []string{"eval_join_probes_total", "dred_rule_firings_total", "counting_delta_rules_total"} {
			if n := m.Counter(c); n != 0 {
				t.Errorf("%s: %s = %d after the restore", name, c, n)
			}
		}
		assertViewsIdentical(t, want, r.Snapshot())
		if _, err := r.ApplyScript(`+q(1,2). -link(a,b).`); err != nil || !r.Has("r", 1, 2) || r.Has("reach", "a", "b") || !r.Has("reach", "b", "a") {
			t.Fatalf("%s maintains: %v, r = %v, reach = %v", name, err, r.Rows("r"), r.Rows("reach"))
		}
	}
	assertViewsIdentical(t, follower.Snapshot(), loaded.Snapshot())
	assertViewsIdentical(t, follower.Snapshot(), reopened.Snapshot())
}

// reopenCheckpoint checkpoints s's state as a new store, closes it and
// reopens it under opts: a restore of the checkpoint alone.
func reopenCheckpoint(t *testing.T, s *Snapshot, opts ...Option) *Views {
	t.Helper()
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) { return ViewsFromReplicaState(s.ReplicaState()) })
	if err == nil {
		err = v.Close()
	}
	if err == nil {
		v, _, err = OpenStore(dir, nil, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRecomputeRestoreEvaluatesNothing: Recompute is an algorithm of the
// one engine, so a state it stamped loads as that engine's storage too. An
// evaluation would probe and build join indexes (the process-wide count;
// no parallel test runs beside this one).
func TestRecomputeRestoreEvaluatesNothing(t *testing.T) {
	d := NewDatabase()
	d.MustLoad(`link(a,b). link(b,c). link(c,a). link(c,d).`)
	v, err := d.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).
		reach(X,Y) :- link(X,Y).
		reach(X,Y) :- reach(X,Z), link(Z,Y).
		deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).`, WithStrategy(Recompute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyScript(`-link(c,d). +link(d,a).`); err != nil {
		t.Fatal(err)
	}
	want := v.Snapshot()
	built := relation.IndexesBuilt()
	follower, err := ViewsFromReplicaState(want.ReplicaState())
	if err != nil {
		t.Fatal(err)
	}
	loaded := reopenCheckpoint(t, want, WithStrategy(Recompute))
	defer loaded.Close()
	if n := relation.IndexesBuilt() - built; n != 0 {
		t.Errorf("the restores built %d indexes", n)
	}
	for name, r := range map[string]*Views{"follower": follower, "checkpoint": loaded} {
		if n := r.Metrics().Counter("eval_join_probes_total"); n != 0 || r.Strategy() != Recompute {
			t.Errorf("%s: eval_join_probes_total = %d after the restore, strategy %v", name, n, r.Strategy())
		}
		assertViewsIdentical(t, want, r.Snapshot())
	}
}
