package ivm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// historyViews are small views keeping a history of n commits.
func historyViews(t *testing.T, n int) *Views {
	t.Helper()
	db := NewDatabase()
	db.MustLoad(`link(a,b).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, WithHistory(n))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// keyed applies u under key and reports the version it landed at and
// whether it was deduped.
func keyed(t *testing.T, v *Views, key string, u *Update) (uint64, bool) {
	t.Helper()
	cs, deduped, err := v.ApplyIdempotent(key, u)
	if err != nil {
		t.Fatal(err)
	}
	return cs.Version(), deduped
}

// links is an update inserting n fresh links named after tag.
func links(tag string, n int) *Update {
	u := NewUpdate()
	for i := 0; i < n; i++ {
		u.Insert("link", fmt.Sprintf("%s_%d", tag, i), "z")
	}
	return u
}

// The history's key index: a key dedups while its commit is among the
// newest n, keyed or not; a hit commits nothing and does not refresh it;
// two keyed applies of one scheduler batch are two commits, each of
// whose keys ages out on its own.
func TestIdemWindowLRU(t *testing.T) {
	v := historyViews(t, 3)
	k0, _ := keyed(t, v, "k0", links("k0", 1))
	keyed(t, v, "k1", links("k1", 1))
	keyed(t, v, "k2", links("k2", 1))
	if ver, deduped := keyed(t, v, "k0", links("k0", 1)); !deduped || ver != k0 {
		t.Fatalf("retry of k0: version %d, deduped %v; want a dedup at %d", ver, deduped, k0)
	}
	if got := len(v.keys); got != 3 {
		t.Fatalf("the index holds %d keys, want 3", got)
	}
	// One unkeyed commit ages k0 out, hit or no hit.
	if _, err := v.Apply(links("plain", 1)); err != nil {
		t.Fatal(err)
	}
	if _, deduped := keyed(t, v, "k0", links("k0", 1)); deduped {
		t.Fatal("k0's commit left the history, yet its retry deduped")
	}
	// That re-apply is k0's commit now, and k1's aged out with it.
	for key, want := range map[string]bool{"k0": true, "k1": false, "k2": true} {
		if _, ok := v.keys[key]; ok != want {
			t.Fatalf("%s in the index: %v, want %v", key, ok, want)
		}
	}
	// A batch of two keyed applies commits twice, a at v and b at v+1: a
	// ages out with the third commit after v, b one commit later.
	reqs := []*applyReq{{u: links("a", 1), keys: []string{"a"}}, {u: links("b", 1), keys: []string{"b"}}}
	for _, r := range reqs {
		r.enq, r.done = time.Now(), make(chan struct{})
	}
	v.processBatch(reqs)
	if reqs[0].err != nil || reqs[1].err != nil || reqs[1].cs.Version() != reqs[0].cs.Version()+1 {
		t.Fatalf("the batch's applies committed as %v and %v, want consecutive versions", reqs[0].cs, reqs[1].cs)
	}
	for i := 0; i <= 3; i++ {
		for j, key := range []string{"a", "b"} {
			if ver, ok := v.keys[key]; ok != (i < 2+j) || ok && ver != reqs[j].cs.Version() {
				t.Fatalf("%d commits after the batch: %s in the index at version %d: %v", i+1-j, key, ver, ok)
			}
		}
		if _, err := v.Apply(links(fmt.Sprint("after", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := v.Metrics().Gauge("idem_window_entries"), int64(len(v.keys)); got != want {
		t.Fatalf("idem_window_entries = %d, the index holds %d", got, want)
	}
}

// WithHistory(n) for n ≤ 0 keeps the default: a key dedups 1023 commits
// after its own and re-applies at the 1024th.
func TestIdemWindowDefaultCapacity(t *testing.T) {
	for _, n := range []int{0, -7} {
		v := historyViews(t, n)
		first, _ := keyed(t, v, "k", links("k", 1))
		for i := 1; i < DefaultHistory; i++ {
			if _, err := v.Apply(NewUpdate()); err != nil {
				t.Fatal(err)
			}
		}
		if ver, deduped := keyed(t, v, "k", links("k", 1)); !deduped || ver != first {
			t.Fatalf("WithHistory(%d): %d commits later the retry landed at %d (deduped %v)", n, DefaultHistory-1, ver, deduped)
		}
		if _, err := v.Apply(NewUpdate()); err != nil {
			t.Fatal(err)
		}
		if _, deduped := keyed(t, v, "k", links("k", 1)); deduped {
			t.Fatalf("WithHistory(%d): %d commits later the retry still deduped", n, DefaultHistory)
		}
	}
}

// The byte budget sheds bytes, never keys: a record larger than the whole
// budget is shed to its version and keys, and its key still dedups n−1
// commits later and re-applies at n — the horizon is n commits, whatever
// the records weigh. The newest entry stays whole, whatever its size.
func TestHistoryShedsBytesNotKeys(t *testing.T) {
	const n = 4
	v := historyViews(t, n)
	big, _ := keyed(t, v, "big", links("big", 400))
	h := v.History()
	if ev, _ := h.At(big); ev.Trace == nil || len(ev.Payload) <= n*historyRecordBytes {
		t.Fatalf("the newest entry holds %d bytes of payload and trace %v; want the whole record, over the budget", len(ev.Payload), ev.Trace)
	}
	for i := 1; i < n; i++ {
		if _, err := v.Apply(links(fmt.Sprint("small", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if ev, ok := h.At(big); !ok || ev.Trace != nil || ev.Payload != nil || len(ev.Keys) != 1 {
		t.Fatalf("the big entry %d commits later: %+v, in the history %v; want its version and key only", n-1, ev, ok)
	}
	if ver, deduped := keyed(t, v, "big", links("big", 400)); !deduped || ver != big {
		t.Fatalf("%d commits later the retry landed at %d (deduped %v), want a dedup at %d", n-1, ver, deduped, big)
	}
	if _, err := v.Apply(NewUpdate()); err != nil {
		t.Fatal(err)
	}
	if _, deduped := keyed(t, v, "big", links("big", 400)); deduped {
		t.Fatalf("%d commits later the retry still deduped", n)
	}
}

// A commit's ChangeSet enters the history with it and counts against the
// same budget, each changed row at no less than DESIGN.md §4 measures a
// row of arity 2 to cost — a 40-byte cell with its slots, 64 bytes of
// tuple backing, its key and a 48-byte Row for the read side — and the
// ChangeSet, its map and its relation header at no less than the 416
// bytes a one-row ChangeSet holds besides its row (EXPERIMENTS.md E46).
// Past n × 512 bytes the oldest entries shed their ChangeSets with their
// records and traces; the newest keeps its own, whatever its size.
func TestHistoryCountsChangeSets(t *testing.T) {
	const n = 8
	v := historyViews(t, n)
	h := v.History()
	into := func(tag string, rows int) *ChangeSet {
		u := NewUpdate()
		for i := 0; i < rows; i++ {
			u.Insert("link", fmt.Sprintf("%s_%d", tag, i), "a") // hop(tag_i, b)
		}
		cs, err := v.Apply(u)
		if err != nil || len(cs.Inserted("hop")) != rows {
			t.Fatalf("%s: %v, %v", tag, cs, err)
		}
		return cs
	}
	cs := into("one", 4)
	if ev, _ := h.At(cs.Version()); ev.Changes != cs {
		t.Fatalf("version %d's entry holds ChangeSet %v, its Apply returned %v", cs.Version(), ev.Changes, cs)
	}
	held := func() (used, shed int) {
		lo, hi, _ := h.Bounds()
		for ver := lo + 1; ver <= hi; ver++ {
			e, _ := h.At(ver)
			used += commitBytes(e)
			if e.Changes == nil && e.Trace == nil && e.Payload == nil {
				shed++
			}
		}
		return used, shed
	}
	var last *ChangeSet
	for i := 0; i < 2*n; i++ {
		last = into(fmt.Sprint("c", i), 4)
	}
	used, shed := held()
	if ev, _ := h.At(last.Version()); ev.Changes != last || used > n*historyRecordBytes || shed == 0 || v.Metrics().Gauge("history_bytes") != int64(used) {
		t.Fatalf("the history holds %d bytes (history_bytes %d) with %d of %d entries shed; want at most %d, some shed, the newest whole",
			used, v.Metrics().Gauge("history_bytes"), shed, n, n*historyRecordBytes)
	}
	into("huge", 100)
	if used, shed := held(); used <= n*historyRecordBytes || shed != n-1 || v.Metrics().Gauge("history_bytes") != int64(used) {
		t.Fatalf("after a 100-row commit the history holds %d bytes with %d entries shed; want the newest alone, over the budget", used, shed)
	}
}

// TestHistoryCountsWhatAChangeSetHolds holds the history's count of a
// ChangeSet to the heap it keeps alive: ChangeSets of n new hop rows each,
// held and then dropped with the views kept, after a commit that rebases
// hop so that no version still links their Δ relations. Their rows' keys
// and tuples are the stored relation's, so a ChangeSet holds its header,
// map, relation header and cells.
func TestHistoryCountsWhatAChangeSetHolds(t *testing.T) {
	for _, tc := range []struct{ rows, commits int }{{1, 2000}, {400, 40}} {
		v := historyViews(t, 8)
		apply := func(tag string, rows int) *ChangeSet {
			u := NewUpdate()
			for i := 0; i < rows; i++ {
				u.Insert("link", fmt.Sprintf("%s_%d", tag, i), "a") // hop(tag_i, b)
			}
			cs, err := v.Apply(u)
			if err != nil || cs.Empty() {
				t.Fatalf("%s: %v, %v", tag, cs, err)
			}
			return cs
		}
		held, counted := make([]*ChangeSet, tc.commits), 0
		for i := range held {
			held[i] = apply(fmt.Sprint("c", i), tc.rows)
			counted += commitBytes(CommitEvent{Changes: held[i]})
		}
		apply("rebase", tc.rows*tc.commits) // past the net's bound: a new chain
		heap := func() int64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		with := heap()
		runtime.KeepAlive(held)
		held = nil
		measured := float64(with-heap()) / float64(tc.commits)
		runtime.KeepAlive(v)
		each := float64(counted) / float64(tc.commits)
		t.Logf("%d-row ChangeSet: counted %.0f bytes, holds %.0f", tc.rows, each, measured)
		if each > 1.25*measured || measured > 1.25*each {
			t.Errorf("a %d-row ChangeSet is counted at %.0f bytes and holds %.0f: not within 1.25×", tc.rows, each, measured)
		}
	}
}

// Recovery replays the WAL's records into the history as their versions
// and keys only — a replayed payload would pin the WAL image — and the
// keys dedup.
func TestRecoveredHistoryHoldsKeysOnly(t *testing.T) {
	dir := t.TempDir()
	build := func() (*Views, error) { return historyViews(t, 8), nil }
	v, _, err := OpenStore(dir, build)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := keyed(t, v, "k", links("k", 2))
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if v, _, err = OpenStore(dir, nil, WithHistory(8)); err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if ev, ok := v.History().At(first); !ok || ev.Payload != nil || ev.Trace != nil || ev.Changes != nil || len(ev.Keys) != 1 || ev.Keys[0] != "k" {
		t.Fatalf("the replayed entry: %+v, in the history %v; want version %d and key k only", ev, ok, first)
	}
	if ver, deduped := keyed(t, v, "k", links("k", 2)); !deduped || ver != first {
		t.Fatalf("a retry after recovery landed at %d (deduped %v), want a dedup at %d", ver, deduped, first)
	}
}

// TestHistoryReadersRaceShedding tails the history from several readers
// while keyed writers append, shed and evict entries and retry recent
// keys, which prunes and reads the index: every reader sees versions in
// order, each entry whole or shed to its version and keys, and at the
// end the history holds shed entries and the index the keys of the
// newest commits only.
func TestHistoryReadersRaceShedding(t *testing.T) {
	const n, writes = 8, 200
	v := historyViews(t, n)
	h := v.History()
	_, start, _ := h.Bounds()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for after := start; ; {
				ch := h.WaitCh()
				e, ok := h.Next(after)
				switch {
				case ok && e.Version <= after:
					t.Errorf("after %d the history returned %d", after, e.Version)
					return
				case ok && e.Item.Trace != nil && (e.Item.Trace.Version != e.Version || e.Item.Version != e.Version || len(e.Item.Payload) == 0):
					t.Errorf("entry %d holds record %d, trace %d, %d payload bytes", e.Version, e.Item.Version, e.Item.Trace.Version, len(e.Item.Payload))
					return
				case ok && e.Item.Trace == nil && (e.Item.Payload != nil || e.Item.Changes != nil || e.Item.Version != e.Version):
					t.Errorf("shed entry %d holds %+v", e.Version, e.Item)
					return
				case ok:
					after = e.Version
					continue
				}
				if lo, _, _ := h.Bounds(); after < lo {
					after = lo // fell below the history: a real reader backfills
					continue
				}
				select {
				case <-ch:
				case <-done:
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < writes; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				size := 1 + i%3*40 // every third record weighs more than the budget's share
				if _, _, err := v.ApplyIdempotent(key, links(key, size)); err != nil {
					t.Error(err)
					return
				}
				if i > 0 {
					prev := fmt.Sprintf("w%d-%d", w, i-1)
					if _, _, err := v.ApplyIdempotent(prev, links(prev, 1+(i-1)%3*40)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	wg.Wait()
	v.wmu.Lock()
	defer v.wmu.Unlock()
	lo, hi, _ := h.Bounds()
	want, shed := 0, 0
	for ver := lo + 1; ver <= hi; ver++ {
		ev, _ := h.At(ver)
		want += len(ev.Keys)
		if ev.Trace == nil {
			shed++
		}
	}
	if len(v.keys) != want || hi-lo != n || shed == 0 {
		t.Fatalf("the history holds (%d, %d] with %d keys, %d entries shed; the index holds %d keys", lo, hi, want, shed, len(v.keys))
	}
}
