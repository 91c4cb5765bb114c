package replica

// The divergence guard: a primary that streams a version gap must
// never be silently skipped over. The follower counts the gap in
// replica_divergence_total, drops the connection, and reconnects from
// its applied version so the primary re-backfills the missing range —
// and records at or below the applied version on the re-delivered
// stream are skipped idempotently, not applied twice.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/server"
	"ivm/internal/storage"
)

// fakePrimary scripts replication connections by hand.
type fakePrimary struct {
	t     *testing.T
	state storage.State
	base  uint64 // version of the state record
	conns atomic.Int64
	froms chan string // ?from= of each connection, "" when absent
}

func (f *fakePrimary) send(w http.ResponseWriter, rec storage.ReplRecord) {
	f.t.Helper()
	buf, err := storage.AppendReplRecord(nil, rec)
	if err != nil {
		f.t.Error(err)
		return
	}
	if _, err := w.Write(buf); err != nil {
		return
	}
	w.(http.Flusher).Flush()
}

func (f *fakePrimary) delta(version uint64, script string) storage.ReplRecord {
	return storage.ReplRecord{
		Kind:         storage.ReplKindDelta,
		UnixNano:     time.Now().UnixNano(),
		CommitRecord: storage.CommitRecord{Version: version, Script: script},
	}
}

func (f *fakePrimary) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	conn := f.conns.Add(1)
	from := r.URL.Query().Get("from")
	f.froms <- from
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.(http.Flusher).Flush()

	switch conn {
	case 1:
		// Bootstrap: state at base, one good delta, then a gap — base+3
		// with base+2 never sent. The follower must refuse to apply it.
		payload, err := f.state.AppendTo(nil)
		if err != nil {
			f.t.Error(err)
			return
		}
		f.send(w, storage.ReplRecord{Kind: storage.ReplKindState, UnixNano: time.Now().UnixNano(), CommitRecord: storage.CommitRecord{Version: f.base}, State: payload})
		f.send(w, f.delta(f.base+1, "+link(c,d)."))
		f.send(w, f.delta(f.base+3, "+link(e,f)."))
		// Hold the connection open: the follower must cut it, not us.
		<-r.Context().Done()
	default:
		// The reconnect. Re-deliver an overlap (base+1, already applied
		// — must be skipped, not double-applied), then bridge the gap.
		f.send(w, f.delta(f.base+1, "+link(c,d)."))
		f.send(w, f.delta(f.base+2, "+link(d,e)."))
		f.send(w, f.delta(f.base+3, "+link(e,f)."))
		// Heartbeat until the test is done.
		for {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(20 * time.Millisecond):
				f.send(w, storage.ReplRecord{Kind: storage.ReplKindHeartbeat, UnixNano: time.Now().UnixNano(), CommitRecord: storage.CommitRecord{Version: f.base + 3}})
			}
		}
	}
}

func TestReplicaDivergenceGuard(t *testing.T) {
	// The authoritative state the fake primary claims to be at.
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	authority, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	defer authority.Shutdown()
	snap := authority.Snapshot()
	st := snap.ReplicaState()

	fake := &fakePrimary{
		t:     t,
		base:  snap.Version(),
		state: st,
		froms: make(chan string, 8),
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/replicate", fake)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Start(ts.URL, Options{Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	// First connection bootstraps with no resume point.
	if got := <-fake.froms; got != "" {
		t.Fatalf("bootstrap carried from=%q, want none", got)
	}

	// The gap must force a reconnect that resumes from the applied
	// version — base+1, the last version before the gap.
	select {
	case got := <-fake.froms:
		if want := strconv.FormatUint(fake.base+1, 10); got != want {
			t.Fatalf("reconnected with from=%q, want %q (the applied version)", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never reconnected after the gap")
	}

	waitApplied(t, rep, fake.base+3, 10*time.Second)

	reg := rep.Registry().Snapshot()
	if got := reg.Counter("replica_divergence_total"); got != 1 {
		t.Fatalf("replica_divergence_total = %d, want 1 (the gap, counted once)", got)
	}
	if got := reg.Counter("replica_reconnects_total"); got < 1 {
		t.Fatalf("replica_reconnects_total = %d, want >= 1", got)
	}

	// The overlap record must have been skipped, not re-applied: apply
	// the same three deltas to the authority once each and compare.
	for _, script := range []string{"+link(c,d).", "+link(d,e).", "+link(e,f)."} {
		if _, err := authority.ApplyScript(script); err != nil {
			t.Fatal(err)
		}
	}
	assertConverged(t, authority.Snapshot(), rep)
}

// A record that does not fit the follower's state is a divergence too,
// and counted as one: the follower here was corrupted by hand (a base row
// removed behind replication's back, its version left alone), so the
// primary's next record deletes a tuple it no longer stores. The fold
// must refuse the record whole, name the row, halt the follower and move
// replica_divergence_total — not fail with an untyped engine error while
// the counter the runbook watches stays 0.
func TestReplicaRecordThatDoesNotFitIsDivergence(t *testing.T) {
	v := buildPrimaryViews(t)
	defer v.Shutdown()
	leader := startServer(t, v, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	rep, err := Start(leader.URL(), Options{Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	at := rep.Applied()
	if _, err := rep.Views().ApplyScript("-link(b,c)."); err != nil {
		t.Fatal(err)
	}
	rep.Views().SeedVersion(at)
	corrupted := rep.Views().Rows("hop")

	if _, err := v.ApplyScript("-link(b,c)."); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rep.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the follower kept running across a record that does not fit its state")
	}
	var div *ivm.DivergenceError
	if err := rep.Err(); !errors.As(err, &div) || div.Pred == "" || div.Tuple == nil || div.Version != at+1 {
		t.Fatalf("follower stopped with %v, want a *DivergenceError naming version %d and the row", err, at+1)
	}
	reg := rep.Registry().Snapshot()
	if got := reg.Counter("replica_divergence_total"); got != 1 {
		t.Fatalf("replica_divergence_total = %d, want 1", got)
	}
	if got := reg.Counter("replica_reconnects_total"); got != 0 {
		t.Fatalf("replica_reconnects_total = %d: a state divergence is not healed by reconnecting", got)
	}
	// Nothing of the record was applied.
	if got := rep.Views().Snapshot().Version(); got != at {
		t.Fatalf("follower moved to version %d", got)
	}
	if got := rep.Views().Rows("hop"); len(got) != len(corrupted) || rep.Applied() != at {
		t.Fatalf("the refused record changed the follower: hop %v -> %v, applied %d", corrupted, got, rep.Applied())
	}
}

// TestReadPoolReadYourWrites wires the full read-fanout path: apply to
// the leader, read through a ReadPool bounded by the ack's version, and
// the follower must serve the write (waiting for replication if need
// be) or redirect to the leader — never answer stale.
func TestReadPoolReadYourWrites(t *testing.T) {
	v := buildPrimaryViews(t)
	defer v.Shutdown()
	leader := startServer(t, v, server.Options{ReplHeartbeat: 20 * time.Millisecond})

	rep, err := Start(leader.URL(), Options{Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	follower := startServer(t, rep.Views(), server.Options{
		LeaderURL:      leader.URL(),
		MinVersionWait: 5 * time.Second,
		ExtraMetrics:   nil,
	})

	pool := client.NewReadPool(leader.URL(), []string{follower.URL()}, nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		res, err := pool.Apply(ctx, "+link(c,d"+strconv.Itoa(i)+").")
		if err != nil {
			t.Fatal(err)
		}
		out, err := pool.Query(ctx, "link(X,Y)", client.ReadOptions{MinVersion: res.Version})
		if err != nil {
			t.Fatal(err)
		}
		if out.Version < res.Version {
			t.Fatalf("read-your-writes broken: read at version %d, apply acked %d", out.Version, res.Version)
		}
		found := false
		for _, r := range out.Results {
			if len(r.Tuple) == 2 && r.Tuple[0] == "c" && r.Tuple[1] == "d"+strconv.Itoa(i) {
				found = true
			}
		}
		if !found {
			t.Fatalf("round %d: written row missing from bounded-staleness read at version %d", i, out.Version)
		}
	}

	// A dead replica falls back to the leader transparently.
	deadPool := client.NewReadPool(leader.URL(), []string{"http://127.0.0.1:1"}, nil)
	if _, err := deadPool.Rows(ctx, "link", client.ReadOptions{}); err != nil {
		t.Fatalf("read with a dead replica did not fall back to the leader: %v", err)
	}
	if got := deadPool.Fallbacks(); got != 1 {
		t.Fatalf("Fallbacks() = %d, want 1", got)
	}
}
