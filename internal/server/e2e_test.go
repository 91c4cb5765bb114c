package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ivm"
	"ivm/client"
)

// TestE2EServedTraffic is the acceptance gauntlet: 50 concurrent
// clients mixing applies, snapshot-pinned reads, and subscriptions
// against a store-bound ivmd; every subscriber delta must match a
// published ChangeSet version, session reads must be repeatable, and a
// graceful shutdown under late apply traffic must lose no durably-acked
// apply (verified by reopening the store).
func TestE2EServedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e gauntlet skipped in -short")
	}
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(v, Options{OwnViews: true, SubscriberBuffer: 8192})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c := client.New(srv.URL(), nil)
	ctx := context.Background()

	const (
		appliers    = 20
		readers     = 15
		subscribers = 15
		rounds      = 8
	)

	type ack struct {
		version  uint64
		src, dst string
	}
	var ackMu sync.Mutex
	var acked []ack

	var wg sync.WaitGroup

	// Appliers: unique link pairs, so every acked apply derives a unique
	// hop tuple whose survival we can check after recovery.
	for a := 0; a < appliers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				src := fmt.Sprintf("s%d_%d", a, i)
				mid := fmt.Sprintf("m%d_%d", a, i)
				dst := fmt.Sprintf("d%d_%d", a, i)
				res, err := c.Apply(ctx, fmt.Sprintf("+link(%s,%s). +link(%s,%s).", src, mid, mid, dst))
				if err != nil {
					t.Errorf("applier %d: %v", a, err)
					return
				}
				ackMu.Lock()
				acked = append(acked, ack{res.Version, src, dst})
				ackMu.Unlock()
			}
		}(a)
	}

	// Session readers: repeatable reads — two reads through one session
	// must agree byte-for-byte and report the pinned version, and
	// session versions must never move backwards across sessions.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastVersion uint64
			for i := 0; i < rounds; i++ {
				sess, err := c.NewSession(ctx)
				if err != nil {
					t.Errorf("reader %d: session: %v", r, err)
					return
				}
				if sess.Version < lastVersion {
					t.Errorf("reader %d: session version went backwards: %d after %d", r, sess.Version, lastVersion)
				}
				lastVersion = sess.Version
				first, err := sess.Rows(ctx, "hop")
				if err != nil {
					t.Errorf("reader %d: rows: %v", r, err)
					return
				}
				second, err := sess.Rows(ctx, "hop")
				if err != nil {
					t.Errorf("reader %d: rows: %v", r, err)
					return
				}
				if first.Version != sess.Version || second.Version != sess.Version {
					t.Errorf("reader %d: session reads at %d/%d, pinned %d", r, first.Version, second.Version, sess.Version)
				}
				if len(first.Rows) != len(second.Rows) {
					t.Errorf("reader %d: repeatable read changed size: %d then %d rows", r, len(first.Rows), len(second.Rows))
				}
				sess.Close(ctx)
			}
		}(r)
	}

	// Subscribers: collect every event; verified against acked versions
	// after the applies settle.
	type subResult struct {
		versions []uint64
		err      error
	}
	subResults := make([]subResult, subscribers)
	subCtx, cancelSubs := context.WithCancel(ctx)
	var subWg sync.WaitGroup
	for sI := 0; sI < subscribers; sI++ {
		sub, err := c.Subscribe(subCtx, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		subWg.Add(1)
		go func(sI int, sub *client.Subscription) {
			defer subWg.Done()
			var last uint64
			for ev := range sub.Events() {
				if ev.Hello {
					continue
				}
				if ev.Version < last {
					subResults[sI].err = fmt.Errorf("versions out of order: %d after %d", ev.Version, last)
					return
				}
				last = ev.Version
				subResults[sI].versions = append(subResults[sI].versions, ev.Version)
			}
			subResults[sI].err = sub.Err()
		}(sI, sub)
	}

	wg.Wait() // all applies acked, all reader sessions done

	// Late appliers keep firing while the server shuts down: whatever
	// the server acked must survive; whatever it refused must not be
	// required. Tuples are tagged so stray events past the collected
	// ack set can be attributed.
	var lateWg sync.WaitGroup
	stopLate := make(chan struct{})
	for a := 0; a < 4; a++ {
		lateWg.Add(1)
		go func(a int) {
			defer lateWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLate:
					return
				default:
				}
				src := fmt.Sprintf("late_s%d_%d", a, i)
				mid := fmt.Sprintf("late_m%d_%d", a, i)
				dst := fmt.Sprintf("late_d%d_%d", a, i)
				res, err := c.Apply(ctx, fmt.Sprintf("+link(%s,%s). +link(%s,%s).", src, mid, mid, dst))
				if err != nil {
					return // shutdown reached this client
				}
				ackMu.Lock()
				acked = append(acked, ack{res.Version, src, dst})
				ackMu.Unlock()
			}
		}(a)
	}
	time.Sleep(50 * time.Millisecond) // let late traffic overlap the drain

	shutdownCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	close(stopLate)
	lateWg.Wait()
	cancelSubs()
	subWg.Wait()

	// Every subscriber event must match a published ChangeSet version.
	// Late-apply events may outrun the ack bookkeeping when the HTTP
	// response races the event stream, so versions beyond the last
	// pre-shutdown ack are only required to be monotonic (checked in
	// the consumer loop).
	ackMu.Lock()
	ackedVersions := make(map[uint64]bool, len(acked))
	var maxAcked uint64
	for _, a := range acked {
		ackedVersions[a.version] = true
		if a.version > maxAcked {
			maxAcked = a.version
		}
	}
	ackMu.Unlock()
	for sI, res := range subResults {
		if res.err != nil && !errors.Is(res.err, context.Canceled) {
			t.Errorf("subscriber %d: %v", sI, res.err)
		}
		if len(res.versions) == 0 {
			t.Errorf("subscriber %d saw no events", sI)
		}
		for _, ver := range res.versions {
			if !ackedVersions[ver] && ver <= maxAcked {
				t.Errorf("subscriber %d: event version %d matches no acked apply", sI, ver)
				break
			}
		}
	}

	// Reopen the store: every durably-acked apply must have survived the
	// shutdown, and the clean shutdown checkpoint means zero WAL replay.
	v2, info, err := ivm.OpenStore(dir, nil)
	if err != nil {
		t.Fatalf("reopening store after shutdown: %v", err)
	}
	defer v2.Close()
	if info.Replayed != 0 {
		t.Errorf("clean shutdown should checkpoint: recovery replayed %d WAL records", info.Replayed)
	}
	for _, a := range acked {
		if !v2.Has("hop", a.src, a.dst) {
			t.Fatalf("durably-acked apply lost: hop(%s,%s) missing after recovery", a.src, a.dst)
		}
	}
}
