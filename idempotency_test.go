package ivm_test

// Exactly-once applies at the engine level: ApplyIdempotent must apply
// a key's update exactly once no matter how often it is retried —
// concurrently, after coalescing, or across a crash-recovery replay —
// because a duplicated ⊎ batch silently corrupts every downstream
// count.

import (
	"strings"
	"sync"
	"testing"

	"ivm"
)

// idemViews builds views under duplicate semantics, where a
// double-applied insert is visible as count 2 — set semantics would
// absorb the duplicate and hide the bug these tests look for.
func idemViews(t *testing.T, opts ...ivm.Option) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(storeTestFacts)
	opts = append([]ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)}, opts...)
	v, err := db.Materialize(storeTestProgram, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestApplyIdempotentDedups(t *testing.T) {
	v := idemViews(t)
	cs1, deduped, err := v.ApplyScriptIdempotent("key-1", "+link(c,f).")
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("first apply must not be deduped")
	}
	// Retry with the same key: the answer is the original apply's version
	// and nothing else — the window keeps the ack, not the rows — and the
	// delta is not applied again.
	cs2, deduped, err := v.ApplyScriptIdempotent("key-1", "+link(c,f).")
	if err != nil {
		t.Fatal(err)
	}
	if !deduped {
		t.Fatal("retry of a committed key must dedup")
	}
	if cs1.Empty() || len(cs1.Inserted("hop")) == 0 {
		t.Fatalf("the first apply must carry its deltas, got %v", cs1)
	}
	if cs2.Version() != cs1.Version() {
		t.Fatalf("dedup must answer with the original version: got %d, want %d", cs2.Version(), cs1.Version())
	}
	if !cs2.Empty() || len(cs2.Preds()) != 0 || cs2.Inserted("hop") != nil {
		t.Fatalf("a deduped answer carries no deltas, got %v", cs2)
	}
	if got := v.Count("link", "c", "f"); got != 1 {
		t.Fatalf("link(c,f) count = %d after retry, want 1 (double apply!)", got)
	}
	m := v.Metrics()
	if got := m.Counter("sched_idem_dedup_total"); got != 1 {
		t.Fatalf("sched_idem_dedup_total = %d, want 1", got)
	}
	if got := m.Gauge("idem_window_entries"); got != 1 {
		t.Fatalf("idem_window_entries = %d, want 1", got)
	}
	// A different key applies normally.
	if _, deduped, err = v.ApplyScriptIdempotent("key-2", "+link(c,f)."); err != nil {
		t.Fatal(err)
	} else if deduped {
		t.Fatal("a fresh key must not dedup")
	}
	if got := v.Count("link", "c", "f"); got != 2 {
		t.Fatalf("link(c,f) count = %d, want 2", got)
	}
}

func TestApplyIdempotentEmptyKeyIsPlainApply(t *testing.T) {
	v := idemViews(t)
	for i := 0; i < 2; i++ {
		_, deduped, err := v.ApplyScriptIdempotent("", "+link(x,y).")
		if err != nil {
			t.Fatal(err)
		}
		if deduped {
			t.Fatal("empty key must never dedup")
		}
	}
	if got := v.Count("link", "x", "y"); got != 2 {
		t.Fatalf("count = %d, want 2 (empty key must not dedup)", got)
	}
}

func TestApplyIdempotentKeyTooLong(t *testing.T) {
	v := idemViews(t)
	_, _, err := v.ApplyScriptIdempotent(strings.Repeat("k", 257), "+link(x,y).")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-long key: err = %v, want length error", err)
	}
	if v.Has("link", "x", "y") {
		t.Fatal("rejected apply must not touch state")
	}
}

func TestApplyIdempotentErrorNotCached(t *testing.T) {
	v := idemViews(t)
	// Deleting an absent tuple fails validation; the key must not be
	// recorded, so a corrected retry under the same key applies.
	if _, _, err := v.ApplyScriptIdempotent("k", "-link(zz,zz)."); err == nil {
		t.Fatal("deleting an absent tuple should error")
	}
	cs, deduped, err := v.ApplyScriptIdempotent("k", "+link(zz,zz).")
	if err != nil {
		t.Fatal(err)
	}
	if deduped || cs == nil {
		t.Fatal("a key whose apply failed must not be remembered")
	}
	if !v.Has("link", "zz", "zz") {
		t.Fatal("corrected retry did not apply")
	}
}

func TestApplyIdempotentConcurrentSameKey(t *testing.T) {
	v := idemViews(t)
	const callers = 32
	var wg sync.WaitGroup
	versions := make([]uint64, callers)
	dedups := make([]bool, callers)
	empties := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs, deduped, err := v.ApplyScriptIdempotent("race-key", "+link(c,q).")
			if err != nil {
				t.Error(err)
				return
			}
			versions[i] = cs.Version()
			dedups[i] = deduped
			empties[i] = cs.Empty()
		}(i)
	}
	wg.Wait()
	if got := v.Count("link", "c", "q"); got != 1 {
		t.Fatalf("link(c,q) count = %d after %d concurrent same-key applies, want 1", got, callers)
	}
	nondeduped := 0
	for i := 1; i < callers; i++ {
		if versions[i] != versions[0] {
			t.Fatalf("caller %d saw version %d, caller 0 saw %d — all must share the one committed version", i, versions[i], versions[0])
		}
	}
	for i, d := range dedups {
		if !d {
			nondeduped++
		}
		// Whether it hit the window or raced its leader inside one batch,
		// a deduped caller learns the version and nothing else.
		if d != empties[i] {
			t.Fatalf("caller %d: deduped=%v but Empty()=%v — exactly the deduped answers carry no deltas", i, d, empties[i])
		}
	}
	if nondeduped != 1 {
		t.Fatalf("%d callers applied fresh, want exactly 1", nondeduped)
	}
}

func TestIdempotencyWindowEviction(t *testing.T) {
	v := idemViews(t, ivm.WithIdempotencyWindow(2))
	scripts := []string{"+e(1).", "+e(2).", "+e(3)."}
	for i, s := range scripts {
		if _, _, err := v.ApplyScriptIdempotent(string(rune('a'+i)), s); err != nil {
			t.Fatal(err)
		}
	}
	// "a" was evicted by "c"; its retry re-applies (documented window
	// semantics: past eviction, exactly-once is no longer guaranteed).
	_, deduped, err := v.ApplyScriptIdempotent("a", "+e(1).")
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("retry of an evicted key must re-apply, not dedup")
	}
	if got := v.Count("e", int64(1)); got != 2 {
		t.Fatalf("e(1) count = %d, want 2 after post-eviction retry", got)
	}
	// "c" is still resident and still dedups.
	if _, deduped, err = v.ApplyScriptIdempotent("c", "+e(3)."); err != nil || !deduped {
		t.Fatalf("resident key: deduped=%v err=%v, want dedup", deduped, err)
	}
}

// A crash between commit and ack: the WAL holds the keyed record, the
// client never saw the response. After recovery the retry must dedup
// against the replayed window instead of double-applying.
func TestIdempotencyWindowSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, storeInit(t))
	if err != nil {
		t.Fatal(err)
	}
	cs1, _, err := v.ApplyScriptIdempotent("retry-me", "+link(c,f). -link(a,d).")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.ApplyScriptIdempotent("other", "+link(f,g)."); err != nil {
		t.Fatal(err)
	}
	// Crash: close the WAL without checkpointing, so recovery must
	// replay the keyed records.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	v2, info, err := ivm.OpenStore(dir, noInit(t))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Shutdown()
	if info.Replayed != 2 {
		t.Fatalf("Replayed = %d, want 2", info.Replayed)
	}
	cs2, deduped, err := v2.ApplyScriptIdempotent("retry-me", "+link(c,f). -link(a,d).")
	if err != nil {
		t.Fatal(err)
	}
	if !deduped {
		t.Fatal("retry after recovery must dedup from the replayed window")
	}
	// Replay republishes each record under the version the WAL stamped it
	// with and re-seeds the window with key → that version, so the answer
	// after the crash is the ack the client never saw — and, like every
	// dedup answer, only the ack.
	if cs2.Version() != cs1.Version() {
		t.Fatalf("dedup answer carries version %d, want the original commit's %d", cs2.Version(), cs1.Version())
	}
	if !cs2.Empty() {
		t.Fatalf("a deduped answer carries no deltas, got %v", cs2)
	}
	if got := v2.Count("link", "c", "f"); got != 1 {
		t.Fatalf("link(c,f) count = %d after post-recovery retry, want 1 (double apply!)", got)
	}
	if v2.Has("link", "a", "d") {
		t.Fatal("-link(a,d) re-applied or lost across recovery")
	}
}
