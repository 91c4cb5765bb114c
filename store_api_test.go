package ivm_test

// Store-bound views: the crash-recovery matrix at the public API level.
// Every recovery path — snapshot only, snapshot+WAL, torn WAL tail,
// stale-epoch records — must restore state tuple-and-count identical to
// a full recomputation over the same base facts and update sequence.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ivm"
	"ivm/internal/storage"
)

const storeTestProgram = `
	hop(X,Y)     :- link(X,Z), link(Z,Y).
	tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
`

const storeTestFacts = `link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).`

// storeInit builds the initial views for OpenStore.
func storeInit(t *testing.T) func() (*ivm.Views, error) {
	return func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		if err := db.Load(storeTestFacts); err != nil {
			return nil, err
		}
		return db.Materialize(storeTestProgram)
	}
}

// noInit fails the test if OpenStore falls back to initialization —
// used when reopening a store that must already hold a snapshot.
func noInit(t *testing.T) func() (*ivm.Views, error) {
	return func() (*ivm.Views, error) {
		t.Fatal("init must not run: the store already holds a snapshot")
		return nil, nil
	}
}

// groundTruth recomputes the views from scratch over the base facts
// plus every script in order.
func groundTruth(t *testing.T, scripts []string) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(storeTestFacts)
	v, err := db.Materialize(storeTestProgram, ivm.WithStrategy(ivm.Recompute))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scripts {
		if _, err := v.ApplyScript(s); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// requireSameState asserts tuple-and-count identity on every predicate.
func requireSameState(t *testing.T, got, want *ivm.Views) {
	t.Helper()
	for _, pred := range []string{"link", "hop", "tri_hop"} {
		g, w := got.Rows(pred), want.Rows(pred)
		if len(g) != len(w) {
			t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", pred, len(g), len(w), g, w)
		}
		for i := range w {
			if !g[i].Tuple.Equal(w[i].Tuple) || g[i].Count != w[i].Count {
				t.Fatalf("%s row %d: %v ×%d, want %v ×%d", pred, i, g[i].Tuple, g[i].Count, w[i].Tuple, w[i].Count)
			}
		}
	}
}

var storeTestScripts = []string{
	"+link(c,f).",
	"-link(a,b).",
	"+link(e,a). +link(f,b).",
	"-link(b,e). +link(a,b).",
}

func TestOpenStoreInitCheckpointAndWALReplay(t *testing.T) {
	dir := t.TempDir()
	v, info, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Initialized || info.Epoch != 0 {
		t.Fatalf("info: %+v", info)
	}
	for _, s := range storeTestScripts {
		if _, err := v.ApplyScript(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil { // no Sync: recovery must replay the WAL
		t.Fatal(err)
	}

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if info.Epoch != 1 || info.Replayed != len(storeTestScripts) || info.SkippedStale != 0 {
		t.Fatalf("info: %+v", info)
	}
	requireSameState(t, v2, groundTruth(t, storeTestScripts))
}

func TestOpenStoreSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range storeTestScripts {
		if _, err := v.ApplyScript(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	v.Close()

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if info.Replayed != 0 || info.Epoch != 2 {
		t.Fatalf("info: %+v", info)
	}
	requireSameState(t, v2, groundTruth(t, storeTestScripts))
}

func TestOpenStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range storeTestScripts {
		if _, err := v.ApplyScript(s); err != nil {
			t.Fatal(err)
		}
	}
	v.Close()
	// A crash mid-append: garbage shorter than a record header.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 9, 9})
	f.Close()

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if !info.TornTail || info.Replayed != len(storeTestScripts) {
		t.Fatalf("info: %+v", info)
	}
	requireSameState(t, v2, groundTruth(t, storeTestScripts))
}

func TestOpenStoreStaleEpochRecords(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range storeTestScripts {
		if _, err := v.ApplyScript(s); err != nil {
			t.Fatal(err)
		}
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	v.Close()
	// Crash in the checkpoint-vs-truncate window: the snapshot rename
	// was durable but the WAL truncate was not.
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if info.SkippedStale != len(storeTestScripts) || info.Replayed != 0 {
		t.Fatalf("stale records must be skipped, not double-applied: %+v", info)
	}
	requireSameState(t, v2, groundTruth(t, storeTestScripts))
}

// A crash between a checkpoint and its WAL truncate leaves the old
// epoch's records in the WAL. The open that skips them checkpoints them
// away: the next open neither reads nor reports them, and the WAL holds
// only frames of the epoch that open finds.
func TestOpenStoreCheckpointsAwayStaleRecords(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range storeTestScripts {
		if _, err := v.ApplyScript(s); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, "wal.log")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	v.Close()
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	if info.SkippedStale != len(storeTestScripts) {
		t.Fatalf("the first open after the crash: %+v, want %d stale records skipped", info, len(storeTestScripts))
	}
	if _, err := v2.ApplyScript("+link(z,a)."); err != nil {
		t.Fatal(err)
	}
	v2.Close()
	v3, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	if info.SkippedStale != 0 || info.Replayed != 1 {
		t.Fatalf("the second open: %+v, want no stale record and the one apply replayed", info)
	}
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(wal); off += 24 + int(binary.BigEndian.Uint32(wal[off+16:])) {
		if epoch := binary.BigEndian.Uint64(wal[off:]); epoch != info.Epoch {
			t.Fatalf("the WAL holds a frame of epoch %d at byte %d, the store is at epoch %d", epoch, off, info.Epoch)
		}
	}
	requireSameState(t, v3, groundTruth(t, append(slices.Clone(storeTestScripts), "+link(z,a).")))
}

func TestOpenStoreGroupCommitConcurrentAppliers(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				script := fmt.Sprintf("+link(w%d_%d, sink).", w, i)
				if _, err := v.ApplyScript(script); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A scheduler batch appends one record per apply and then waits on
	// them, which costs one fsync however many it appended.
	snap := v.Metrics()
	if fsyncs, batches := snap.Counter("storage_wal_fsyncs_total"), snap.Counter("sched_batches_total"); fsyncs < 1 || fsyncs > batches {
		t.Fatalf("%d WAL fsyncs over %d scheduler batches, want between 1 and one per batch", fsyncs, batches)
	}
	v.Close()

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	// Every apply is its own commit, and so its own WAL record.
	if info.Replayed != writers*perWriter {
		t.Fatalf("replayed %d records, want one per apply: %d", info.Replayed, writers*perWriter)
	}
	// Insert-only scripts commute, so order differences cannot matter.
	var all []string
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			all = append(all, fmt.Sprintf("+link(w%d_%d, sink).", w, i))
		}
	}
	requireSameState(t, v2, groundTruth(t, all))
}

func TestOpenStoreFloatDeltaIdentitySurvivesWAL(t *testing.T) {
	// Regression for the 5.0-renders-as-5 bug: a float-valued delta
	// logged through the WAL must recover as a float, not an int.
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		return db.Materialize(`w(X, C) :- m(X, C), C > 1.0.`)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(ivm.NewUpdate().Insert("m", "a", 5.0).Insert("m", "b", int64(3))); err != nil {
		t.Fatal(err)
	}
	v.Close()

	v2, _, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.Count("m", "a", 5.0) != 1 || v2.Count("m", "a", int64(5)) != 0 {
		t.Fatal("float 5.0 changed identity through the WAL")
	}
	if v2.Count("m", "b", int64(3)) != 1 {
		t.Fatal("int 3 must stay an int")
	}
	// Deleting the float tuple by value must work after recovery.
	if _, err := v2.Apply(ivm.NewUpdate().Delete("m", "a", 5.0)); err != nil {
		t.Fatalf("delete of recovered float tuple: %v", err)
	}
}

func TestOpenStoreRuleEditReplaysFromWAL(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c). tunnel(c,d).`)
		return db.Materialize(`
			reach(X,Y) :- link(X,Y).
			reach(X,Y) :- reach(X,Z), link(Z,Y).
		`)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddRule(`reach(X,Y) :- tunnel(X,Y).`); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyScript(`+tunnel(d,e).`); err != nil {
		t.Fatal(err)
	}
	v.Close()

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	// The rule edit is a WAL record like the apply after it: the epoch
	// stays where OpenStore's initial checkpoint put it and both replay.
	if info.Epoch != 1 || info.Replayed != 2 {
		t.Fatalf("info: %+v", info)
	}
	if len(v2.Program().Rules) != 3 || v2.ProgramSource() != v.ProgramSource() {
		t.Fatalf("rules: %v", v2.Program().Rules)
	}
	for _, want := range [][2]string{{"a", "c"}, {"c", "d"}, {"d", "e"}} {
		if !v2.Has("reach", want[0], want[1]) {
			t.Fatalf("reach(%s,%s) missing after recovery", want[0], want[1])
		}
	}

	// A rule edit whose record cannot be logged was still maintained: like
	// an Apply whose WAL write fails it publishes — readers and the engine
	// must not part — and reports the durability error; subscribers hear
	// nothing of it.
	h := v2.History()
	before := v2.Snapshot().Version()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	restore := walWritesFail(t, dir)
	_, err = v2.AddRule(`reach(X,Y) :- link(Y,X).`)
	restore()
	if err == nil || errors.Is(err, ivm.ErrStoreClosed) || !strings.Contains(err.Error(), "not durably logged") {
		t.Fatalf("AddRule over a failing WAL: %v, want a durability error", err)
	}
	if _, announced := h.At(before + 1); v2.Snapshot().Version() != before+1 || announced || ivm.EngineRules(v2) != 4 {
		t.Fatalf("unlogged edit: version %d (was %d), in the history %v, %d engine rules; want it published and left out", v2.Snapshot().Version(), before, announced, ivm.EngineRules(v2))
	}
	if _, err := v2.ApplyScript(`+link(c,d).`); err != nil {
		t.Fatal(err)
	}
	for _, pred := range v2.Snapshot().Preds() {
		if got, want := fmt.Sprint(v2.Rows(pred)), fmt.Sprint(ivm.EngineRows(v2, pred)); got != want {
			t.Fatalf("%s after an acked apply: published %s, engine holds %s", pred, got, want)
		}
	}
}

func TestOpenStoreFailedFsyncRefusesUntilReopen(t *testing.T) {
	// A failed WAL fsync is sticky: the kernel may have dropped the pages
	// it could not write, so a later fsync that succeeds proves nothing.
	// The apply it fails was maintained and published but not logged; the
	// next is refused before the engine moves, even with the disk back;
	// a reopen recovers what the WAL holds, and a keyed retry lands once.
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	restore := walSyncsFail(t, dir)
	_, _, err = v.ApplyIdempotent("k1", scriptUpdate(t, "+link(x,y)."))
	restore()
	if err == nil || !strings.Contains(err.Error(), "not durably logged") {
		t.Fatalf("apply over a failing fsync: %v, want a durability error", err)
	}
	before := v.Snapshot().Version()
	if _, err := v.ApplyScript("+link(y,z)."); err == nil || !strings.Contains(err.Error(), "fsync failed") {
		t.Fatalf("apply after a failed fsync: %v, want it refused", err)
	}
	if got := v.Snapshot().Version(); got != before || v.Has("link", "y", "z") {
		t.Fatalf("refused apply moved the views: version %d, was %d", got, before)
	}
	v.Close()

	v2, _, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if _, deduped, err := v2.ApplyIdempotent("k1", scriptUpdate(t, "+link(x,y).")); err != nil || deduped {
		t.Fatalf("keyed retry after reopen: deduped=%v err=%v", deduped, err)
	}
	if got := v2.Count("link", "x", "y"); got != 1 {
		t.Fatalf("link(x,y) count %d after the retry, want 1", got)
	}
}

func TestOpenStoreMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := v.ApplyScript("+link(x,y)."); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := v.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, series := range []string{"storage_wal_appends_total 1", "storage_checkpoints_total 1", "storage_wal_fsync_count"} {
		if !strings.Contains(out, series) {
			t.Fatalf("metrics exposition missing %q:\n%s", series, out)
		}
	}
	if dirGot, ok := v.Store(); !ok || dirGot != dir {
		t.Fatalf("Store() = %q, %v", dirGot, ok)
	}
}

func TestOpenStoreApplyAfterCloseFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// The store binding must survive Close: a later Apply or Sync has to
	// surface ErrStoreClosed instead of silently succeeding in memory
	// with no WAL record behind it.
	if _, err := v.ApplyScript("+link(x,y)."); !errors.Is(err, ivm.ErrStoreClosed) {
		t.Fatalf("Apply after Close: %v, want ErrStoreClosed", err)
	}
	if err := v.Sync(); !errors.Is(err, ivm.ErrStoreClosed) {
		t.Fatalf("Sync after Close: %v, want ErrStoreClosed", err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}
	if _, ok := v.Store(); !ok {
		t.Fatal("Store() must still report the binding after Close")
	}

	// Rule edits pass the same admission: refused before the engine is
	// touched, so neither the engine nor its state record holds a rule the
	// caller was told failed.
	dv, _, err := ivm.OpenStore(t.TempDir(), func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). tunnel(b,c).`)
		return db.Materialize(`reach(X,Y) :- link(X,Y). reach(X,Y) :- tunnel(X,Y).`, ivm.WithStrategy(ivm.DRed))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		edit func() (*ivm.ChangeSet, error)
	}{
		{"AddRule", func() (*ivm.ChangeSet, error) { return dv.AddRule(`reach(X,Y) :- link(Y,X).`) }},
		{"RemoveRule", func() (*ivm.ChangeSet, error) { return dv.RemoveRule(1) }},
	} {
		for i := 0; i < 2; i++ {
			if _, err := row.edit(); !errors.Is(err, ivm.ErrStoreClosed) {
				t.Fatalf("%s after Close: %v, want ErrStoreClosed", row.name, err)
			}
		}
		if n := ivm.EngineRules(dv); n != 2 {
			t.Fatalf("%s after Close left the engine with %d rules, want 2", row.name, n)
		}
		lv, err := ivm.ViewsFromReplicaState(dv.Snapshot().ReplicaState())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(lv.Program().Rules); n != 2 || !lv.Has("reach", "b", "c") || lv.Has("reach", "b", "a") {
			t.Fatalf("%s after Close: the state record holds %d rules, reach = %v", row.name, n, lv.Rows("reach"))
		}
	}
}

// scriptUpdate parses a delta script the test knows to be well formed.
func scriptUpdate(t *testing.T, src string) *ivm.Update {
	t.Helper()
	u, err := ivm.ParseUpdate(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestOpenStoreRejectsNonFiniteFloats(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		return db.Materialize(`w(X, C) :- m(X, C), C > 1.0.`)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// NaN/±Inf have no parseable literal syntax, so a WAL record holding
	// one could never replay; store-bound views must reject the update
	// before applying it in memory.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := v.Apply(ivm.NewUpdate().Insert("m", "a", bad)); err == nil {
			t.Fatalf("store-bound Apply must reject %v", bad)
		}
		if rows := v.Rows("m"); len(rows) != 0 {
			t.Fatalf("rejected update must not mutate state: m = %v", rows)
		}
	}
	// Finite floats stay accepted.
	if _, err := v.Apply(ivm.NewUpdate().Insert("m", "a", 2.5)); err != nil {
		t.Fatal(err)
	}

	// Memory-only views (no store) keep accepting non-finite floats.
	db := ivm.NewDatabase()
	mem, err := db.Materialize(`w(X, C) :- m(X, C), C > 1.0.`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Apply(ivm.NewUpdate().Insert("m", "a", math.Inf(1))); err != nil {
		t.Fatalf("memory-only views must accept non-finite floats: %v", err)
	}
}

func TestOpenStoreWALRepairOptIn(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range storeTestScripts {
		if _, err := v.ApplyScript(s); err != nil {
			t.Fatal(err)
		}
	}
	v.Close()
	// Flip a byte inside the second record's deltas: mid-WAL corruption
	// with acknowledged records behind it.
	wal := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	const walHeader, recordFixed = 24, 11 // frame header; payload before the deltas
	first := walHeader + int(binary.BigEndian.Uint32(data[16:]))
	data[first+walHeader+recordFixed+1] ^= 0x20
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := ivm.OpenStore(dir, noInit(t)); err == nil {
		t.Fatal("OpenStore must refuse mid-WAL corruption without WithWALRepair")
	}
	v2, info, err := ivm.OpenStore(dir, noInit(t), ivm.WithWALRepair())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if info.CorruptRecords != 1 || info.Replayed != 1 {
		t.Fatalf("info: %+v", info)
	}
	requireSameState(t, v2, groundTruth(t, storeTestScripts[:1]))
}

// Regression: a checkpoint carries a checksum footer, and loading one must
// check it. A snapshot of a two-fact database with one body byte changed
// still decodes — link(cccc,b) just becomes link(dccc,b) — so without the
// check a load returned err == nil and the wrong row.
func TestLoadPathsVerifySnapshotChecksum(t *testing.T) {
	build := func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		if err := db.Load(`link(a,cccc). link(cccc,b).`); err != nil {
			return nil, err
		}
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	}
	flip := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte("cccc")) {
			t.Fatalf("%s does not hold the fact text to corrupt", path)
		}
		if err := os.WriteFile(path, bytes.Replace(data, []byte("cccc"), []byte("dccc"), 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	sv, _, err := ivm.OpenStore(dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	flip(filepath.Join(dir, "snapshot-1.gob"))
	// The only checkpoint is damaged: it is set aside, nothing older
	// exists to fall back to, and with no init the open must fail rather
	// than serve the corrupted rows.
	if got, info, err := ivm.OpenStore(dir, nil); err == nil {
		t.Fatalf("OpenStore accepted a corrupted checkpoint (%v): link = %v", info, got.Rows("link"))
	} else if info.BadSnapshots != 1 {
		t.Fatalf("info: %+v (err %v)", info, err)
	}
}

// A store the previous build wrote — or a WAL that mixes its script
// records (format 1) with this build's delta records (format 2) — still
// opens: script records replay by re-derivation, delta records by
// folding, each at its stamped version, keys re-seeded either way.
func TestOpenStoreReplaysScriptRecordsBesideDeltaRecords(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := v.ApplyIdempotent("k-delta", scriptUpdate(t, storeTestScripts[0]))
	if err != nil {
		t.Fatal(err)
	}
	v.Close()

	// The previous build's writer: the same store, a script record.
	st, err := storage.OpenStore(dir, storage.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, script := range storeTestScripts[1:3] {
		wait, err := st.AppendVersionedAsync(cs.Version()+1+uint64(i), script, []string{fmt.Sprintf("k-script-%d", i)})
		if err == nil {
			err = wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if info.Replayed != 3 || v2.Snapshot().Version() != cs.Version()+2 {
		t.Fatalf("replayed %d records to version %d, want 3 to %d", info.Replayed, v2.Snapshot().Version(), cs.Version()+2)
	}
	requireSameState(t, v2, groundTruth(t, storeTestScripts[:3]))
	if got := v2.Metrics().Histograms["commit_replay_seconds"].Count; got != 1 {
		t.Fatalf("commit_replay_seconds observed %d records, want only the delta record", got)
	}
	for key, want := range map[string]uint64{"k-delta": cs.Version(), "k-script-0": cs.Version() + 1, "k-script-1": cs.Version() + 2} {
		got, deduped, err := v2.ApplyIdempotent(key, scriptUpdate(t, "+link(x,y)."))
		if err != nil || !deduped || got.Version() != want {
			t.Fatalf("retry of %s: version %d deduped %v err %v, want a dedup at %d", key, got.Version(), deduped, err, want)
		}
	}
}

// A record's count changes are changes of the stored counts of the
// strategy and semantics that cut it. A WAL left behind by one
// configuration is refused under another — folding it would, here, take
// hop(a,c) (two derivations under counting, stored once by DRed) away
// while a-d-c still derives it — and opens again under its own; once that
// has checkpointed, any configuration opens the store.
func TestOpenStoreRefusesAWALCutUnderAnotherConfiguration(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t)) // auto: counting, set semantics
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyScript("-link(a,b)."); err != nil {
		t.Fatal(err)
	}
	v.Close() // no checkpoint: the record stays in the WAL

	for name, opt := range map[string]ivm.Option{
		"strategy":       ivm.WithStrategy(ivm.DRed),
		"semantics":      ivm.WithSemantics(ivm.DuplicateSemantics),
		"other baseline": ivm.WithStrategy(ivm.Recompute),
	} {
		_, _, err := ivm.OpenStore(dir, noInit(t), opt)
		var div *ivm.DivergenceError
		if !errors.As(err, &div) || div.Engine == "" || div.Engine == div.Have || !strings.Contains(err.Error(), "counting/set") {
			t.Fatalf("%s changed: OpenStore = %v, want a *DivergenceError naming both configurations", name, err)
		}
	}

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil || info.Replayed != 1 {
		t.Fatalf("reopen under the cutting configuration: %+v, %v", info, err)
	}
	requireSameState(t, v2, groundTruth(t, []string{"-link(a,b)."}))
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}

	v3, info, err := ivm.OpenStore(dir, noInit(t), ivm.WithStrategy(ivm.DRed))
	if err != nil || info.Replayed != 0 || v3.Strategy() != ivm.DRed {
		t.Fatalf("reopen under DRed after a checkpoint: %+v, %v", info, err)
	}
	defer v3.Close()
	if !v3.Has("hop", "a", "c") {
		t.Fatal("hop(a,c) is still derivable via a-d-c")
	}
}
