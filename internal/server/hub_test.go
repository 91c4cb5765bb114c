package server

import (
	"fmt"
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
	h := NewHub(v, reg, 256)

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
	h := NewHub(v, reg, 256)
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
