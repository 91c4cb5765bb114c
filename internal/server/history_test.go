package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"ivm"
	"ivm/internal/storage"
)

// A server shut down over views that outlive it costs their applies
// nothing: its hub, whose commit hook stays registered, encodes no event
// once closed. An apply after Shutdown allocates no more than one on the
// same views before the server existed, the history already running.
func TestShutDownServerCostsAppliesNothing(t *testing.T) {
	v := buildTestViews(t)
	v.History()
	flip := 0
	apply := func() {
		u := ivm.NewUpdate().Insert("link", "c", "d")
		if flip++; flip%2 == 0 {
			u = ivm.NewUpdate().Delete("link", "c", "d")
		}
		if cs, err := v.Apply(u); err != nil || cs.Empty() {
			t.Fatalf("apply: %v %v", cs, err)
		}
	}
	before := testing.AllocsPerRun(100, apply)
	srv := New(v, Options{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	apply()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Encoding an event costs 6 objects; the slack of 2 absorbs the race
	// detector's sync.Pool, which drops a random share of what it is given.
	if after := testing.AllocsPerRun(100, apply); after > before+2 {
		t.Fatalf("an apply after the server's shutdown allocates %.0f objects, %.0f before it existed", after, before)
	}
}

// Two servers over one views share its history: a second server answers
// /v1/trace and /v1/replicate for commits published before it existed,
// and keeps serving after the first shuts down.
func TestSecondServerSharesTheHistory(t *testing.T) {
	v, first := startReplServer(t, Options{ReplHeartbeat: 25 * time.Millisecond})
	base := v.Snapshot().Version()
	var want []uint64
	apply := func(i int) {
		cs, err := v.Apply(ivm.NewUpdate().Insert("link", fmt.Sprintf("s%d", i), "z"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs.Version())
	}
	for i := 0; i < 3; i++ {
		apply(i)
	}
	second := New(v, Options{ReplHeartbeat: 25 * time.Millisecond})
	if err := second.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		second.Shutdown(ctx)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	apply(3)
	if status, tr, body := getTrace(t, second.URL(), fmt.Sprint(want[0])); status != http.StatusOK || tr.Version != want[0] {
		t.Fatalf("the second server's trace of version %d, committed before it existed: %d %s", want[0], status, body)
	}
	br, closeStream := openStream(t, fmt.Sprintf("%s/v1/replicate?from=%d", second.URL(), base))
	defer closeStream()
	for _, wv := range want {
		if rec := nextDataRecord(t, br); rec.Kind != storage.ReplKindDelta || rec.Version != wv {
			t.Fatalf("got kind %q version %d, want delta version %d from the shared history", rec.Kind, rec.Version, wv)
		}
	}
}
