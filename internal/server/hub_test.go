package server

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"ivm"
	"ivm/internal/metrics"
)

func buildTestViews(t *testing.T, opts ...ivm.Option) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHubBackpressure is the subscriber-backpressure contract: a slow
// consumer (full buffer) is evicted with a metrics increment while a
// fast consumer observes every committed ChangeSet version, in order.
func TestHubBackpressure(t *testing.T) {
	v := buildTestViews(t)
	reg := metrics.NewRegistry()
	h := NewHub(v, reg)

	fast := h.Subscribe(nil, 1024)
	slow := h.Subscribe(nil, 1)

	var mu sync.Mutex
	var fastSeen []*commit
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range fast.Events() {
			mu.Lock()
			fastSeen = append(fastSeen, ev)
			mu.Unlock()
		}
	}()
	// The slow subscriber never reads: its 1-slot buffer fills on the
	// first commit and the second commit must evict it.

	const updates = 40
	var want []uint64
	for i := 0; i < updates; i++ {
		cs, err := v.Apply(ivm.NewUpdate().
			Insert("link", fmt.Sprintf("s%d", i), fmt.Sprintf("m%d", i)).
			Insert("link", fmt.Sprintf("m%d", i), fmt.Sprintf("d%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !cs.Empty() {
			want = append(want, cs.Version())
		}
	}
	if len(want) < updates {
		t.Fatalf("expected every update to change views, got %d/%d", len(want), updates)
	}

	// Commit handlers run before Apply returns, so eviction has already
	// happened; the slow channel must be closed with the evicted flag.
	if _, open := <-slow.Events(); open {
		// first buffered event is fine; channel must then be closed
		if _, open := <-slow.Events(); open {
			t.Fatal("slow subscriber still open after overflowing its buffer")
		}
	}
	if !slow.Evicted() {
		t.Fatal("slow subscriber not marked evicted")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("server_sub_evicted_total"); got != 1 {
		t.Fatalf("server_sub_evicted_total = %d, want 1", got)
	}
	if got := snap.Gauge("server_subscribers_active"); got != 1 {
		t.Fatalf("server_subscribers_active = %d, want 1 (fast only)", got)
	}

	fast.Close()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(fastSeen) != len(want) {
		t.Fatalf("fast subscriber saw %d events, want %d", len(fastSeen), len(want))
	}
	for i, ev := range fastSeen {
		if ev.version != want[i] {
			t.Fatalf("event %d: version %d, want %d (order must match commit order)", i, ev.version, want[i])
		}
		if len(ev.frags) == 0 {
			t.Fatalf("event %d: empty deltas", i)
		}
	}
}

// TestHubConcurrentAppliesDeliverInOrder hammers the hub from many
// Apply goroutines and checks a fast subscriber observes nondecreasing
// versions with every event matching a published ChangeSet version.
func TestHubConcurrentAppliesDeliverInOrder(t *testing.T) {
	v := buildTestViews(t)
	reg := metrics.NewRegistry()
	h := NewHub(v, reg)
	sub := h.Subscribe([]string{"hop"}, 4096)

	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var wg sync.WaitGroup
	const writers, rounds = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mid := fmt.Sprintf("w%d_%d", w, i)
				cs, err := v.Apply(ivm.NewUpdate().
					Insert("link", "s_"+mid, mid).Insert("link", mid, "d_"+mid))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[cs.Version()] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sub.Close()

	var last uint64
	n := 0
	for ev := range sub.Events() {
		if ev.version < last {
			t.Fatalf("version went backwards: %d after %d", ev.version, last)
		}
		last = ev.version
		if !acked[ev.version] {
			t.Fatalf("event version %d was never returned by an Apply", ev.version)
		}
		n++
	}
	if n == 0 {
		t.Fatal("subscriber saw no events")
	}
	if sub.Evicted() {
		t.Fatal("fast subscriber was evicted")
	}
}

// TestResumeRacesPublish resumes subscriptions while applies commit: a
// commit enters the history before the hub publishes it, so a resume
// lands between the two now and then. Each resumed stream — backlog, then
// live — must carry every version after its resume point exactly once,
// in order. (It may open with the published versions up to a resume point
// read from the snapshot ahead of publish: the overlap a hello has too.)
func TestResumeRacesPublish(t *testing.T) {
	v := buildTestViews(t)
	h := NewHub(v, metrics.NewRegistry())
	start := v.Snapshot().Version()
	const writers, rounds, resumers = 4, 40, 4
	var mu sync.Mutex
	var acked []uint64
	var applies, resumes, drains sync.WaitGroup
	for w := 0; w < writers; w++ {
		applies.Add(1)
		go func() {
			defer applies.Done()
			for i := 0; i < rounds; i++ {
				mid := fmt.Sprintf("r%d_%d", w, i)
				cs, err := v.Apply(ivm.NewUpdate().Insert("link", "s_"+mid, mid).Insert("link", mid, "d_"+mid))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, cs.Version())
				mu.Unlock()
			}
		}()
	}
	type stream struct {
		from uint64
		seen []uint64
	}
	var streams []*stream
	for r := 0; r < resumers; r++ {
		resumes.Add(1)
		go func() {
			defer resumes.Done()
			for i := 0; i < rounds/4; i++ {
				cur := v.Snapshot().Version()
				from := max(start, cur-min(cur, uint64(r))) // up to r commits back
				sub, backlog, resync := h.SubscribeFrom(nil, 4*writers*rounds, from)
				if sub == nil || resync {
					t.Errorf("resume from %d: sub=%v resync=%v", from, sub, resync)
					return
				}
				s := &stream{from: from}
				for _, c := range backlog {
					s.seen = append(s.seen, c.version)
				}
				mu.Lock()
				streams = append(streams, s)
				mu.Unlock()
				drains.Add(1)
				go func() {
					defer drains.Done()
					for c := range sub.Events() {
						s.seen = append(s.seen, c.version)
					}
				}()
				defer sub.Close()
			}
			applies.Wait()
		}()
	}
	resumes.Wait()
	drains.Wait()
	slices.Sort(acked)
	for _, s := range streams {
		after := slices.DeleteFunc(slices.Clone(s.seen), func(v uint64) bool { return v <= s.from })
		i := sort.Search(len(acked), func(i int) bool { return acked[i] > s.from })
		if !slices.IsSorted(s.seen) || len(slices.Compact(slices.Clone(s.seen))) != len(s.seen) || !slices.Equal(after, acked[i:]) {
			t.Fatalf("resumed after %d, the stream carried %v; the applies acked %v", s.from, s.seen, acked[i:])
		}
	}
}

// TestResumeAcrossResetResyncs: a replica reset publishes its commit
// without a history entry, so a resume from before it cannot be bridged
// from the history and resyncs; one from the reset on is served.
func TestResumeAcrossResetResyncs(t *testing.T) {
	v := buildTestViews(t)
	h := NewHub(v, metrics.NewRegistry())
	before := v.Snapshot().Version()
	primary := buildTestViews(t)
	for i := 0; i < 3; i++ {
		if _, err := primary.Apply(ivm.NewUpdate().Insert("link", fmt.Sprint("x", i), "a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.ResetToReplicaState(primary.Snapshot().ReplicaState()); err != nil {
		t.Fatal(err)
	}
	reset := v.Snapshot().Version()
	if sub, _, resync := h.SubscribeFrom(nil, 4, before); sub != nil || !resync {
		t.Fatalf("resume from %d across the reset to %d: sub=%v resync=%v, want a resync", before, reset, sub, resync)
	}
	cs, err := v.Apply(ivm.NewUpdate().Insert("link", "y", "a"))
	if err != nil {
		t.Fatal(err)
	}
	sub, backlog, resync := h.SubscribeFrom(nil, 4, reset)
	if sub == nil || resync || len(backlog) != 1 || backlog[0].version != cs.Version() {
		t.Fatalf("resume from the reset's version %d: sub=%v resync=%v backlog=%v", reset, sub, resync, backlog)
	}
	sub.Close()
}
