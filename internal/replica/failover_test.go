package replica

// Failover tests: the fencing-epoch guard on the tail loop (a stale 'D'
// record from a deposed primary is counted and dropped, never applied)
// and the full chaos drill — kill the primary mid-load, promote a
// follower, revive the old primary, and prove no split brain and no
// lost acked apply.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/metrics"
	"ivm/internal/server"
	"ivm/internal/storage"
)

// fencePrimary scripts a deposed-primary stream: connection 1 leads
// with state at epoch 2, one good delta, then a delta stamped epoch 1 —
// as if a revived pre-failover primary had hijacked the stream. The
// follower must fence it and reconnect; connection 2 re-serves the
// record at the real epoch.
type fencePrimary struct {
	t      *testing.T
	state  storage.State
	base   uint64
	conns  atomic.Int64
	epochs chan string // ?epoch= of each connection
}

func (f *fencePrimary) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	conn := f.conns.Add(1)
	f.epochs <- r.URL.Query().Get("epoch")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.(http.Flusher).Flush()

	send := func(rec storage.ReplRecord) {
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
	delta := func(version, epoch uint64, script string) storage.ReplRecord {
		return storage.ReplRecord{
			Kind:         storage.ReplKindDelta,
			Epoch:        epoch,
			UnixNano:     time.Now().UnixNano(),
			CommitRecord: storage.CommitRecord{Version: version, Script: script},
		}
	}

	switch conn {
	case 1:
		payload, err := f.state.AppendTo(nil)
		if err != nil {
			f.t.Error(err)
			return
		}
		send(storage.ReplRecord{Kind: storage.ReplKindState, Epoch: 2, UnixNano: time.Now().UnixNano(), CommitRecord: storage.CommitRecord{Version: f.base}, State: payload})
		send(delta(f.base+1, 2, "+link(c,d)."))
		// The stale record: one epoch behind what the follower has seen.
		// It must be fenced, not applied, and the follower cuts the
		// stream (we hold it open to prove the cut is theirs).
		send(delta(f.base+2, 1, "+link(POISON,POISON)."))
		<-r.Context().Done()
	default:
		// The reconnect, carrying the fenced epoch: re-serve version
		// base+2 as the real epoch-2 leader would.
		send(delta(f.base+1, 2, "+link(c,d)."))
		send(delta(f.base+2, 2, "+link(d,e)."))
		for {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(20 * time.Millisecond):
				send(storage.ReplRecord{Kind: storage.ReplKindHeartbeat, Epoch: 2, UnixNano: time.Now().UnixNano(), CommitRecord: storage.CommitRecord{Version: f.base + 2}})
			}
		}
	}
}

// TestReplicaFencesStaleEpoch: a 'D' record carrying an older fencing
// epoch is rejected by the tail loop — counted in replica_fenced_total,
// never applied — and the follower reconnects with its known epoch in
// the handshake.
func TestReplicaFencesStaleEpoch(t *testing.T) {
	authority := buildPrimaryViews(t)
	defer authority.Shutdown()
	snap := authority.Snapshot()
	st := snap.ReplicaState()

	fake := &fencePrimary{
		t:      t,
		base:   snap.Version(),
		state:  st,
		epochs: make(chan string, 8),
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/replicate", fake)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Start(ts.URL, Options{Retry: fastRetry, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	// Connection 1 handshakes with epoch 1 (nothing seen yet).
	if got := <-fake.epochs; got != "1" {
		t.Fatalf("bootstrap handshake epoch %q, want 1", got)
	}
	// The fence forces a reconnect that must carry the learned epoch 2.
	select {
	case got := <-fake.epochs:
		if got != "2" {
			t.Fatalf("reconnect handshake epoch %q, want 2 (learned from the stream)", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never reconnected after the stale-epoch record")
	}

	waitApplied(t, rep, fake.base+2, 10*time.Second)

	reg := rep.Registry().Snapshot()
	if got := reg.Counter("replica_fenced_total"); got != 1 {
		t.Fatalf("replica_fenced_total = %d, want 1", got)
	}
	if got := reg.Counter("replica_divergence_total"); got != 0 {
		t.Fatalf("replica_divergence_total = %d, want 0 — a fence is not a gap", got)
	}
	if got := rep.Epoch(); got != 2 {
		t.Fatalf("follower epoch %d, want 2", got)
	}
	// The poisoned record must not have been applied.
	if n := rep.Views().Snapshot().Count("link", "POISON", "POISON"); n != 0 {
		t.Fatal("fenced record was applied")
	}
	// The local views mirror the stream's epoch for a later promotion.
	if got := rep.Views().FenceEpoch(); got != 2 {
		t.Fatalf("views fence epoch %d, want 2", got)
	}
}

// TestFailoverChaos is the cluster drill from DESIGN.md §15: a
// store-bound primary takes keyed writes forwarded through a follower,
// dies mid-load, a caught-up follower is promoted at epoch+1, the
// second follower re-resolves to it via seeds, the revived old primary
// is fenced on both its serving surfaces, and the survivors converge
// bit-identically with every acked apply present — exactly once.
func TestFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos run skipped in -short")
	}
	dirA := t.TempDir()
	build := func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	}
	vA, _, err := ivm.OpenStore(dirA, build)
	if err != nil {
		t.Fatal(err)
	}
	srvA := server.New(vA, server.Options{OwnViews: true, ReplHeartbeat: 20 * time.Millisecond, Logger: testLogger(t)})
	if err := srvA.Start(); err != nil {
		t.Fatal(err)
	}
	shutA := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srvA.Shutdown(ctx)
	}

	// F1: the promotable follower — its server wires POST /v1/promote to
	// the replica's Promote, exactly as cmd/ivmd does.
	rep1, err := Start(srvA.URL(), Options{Retry: fastRetry, StallTimeout: 2 * time.Second, Logger: testLogger(t)})
	if err != nil {
		shutA()
		t.Fatal(err)
	}
	defer rep1.Stop()
	srv1 := startServer(t, rep1.Views(), server.Options{
		LeaderURL:      srvA.URL(),
		ReplHeartbeat:  20 * time.Millisecond,
		MinVersionWait: 5 * time.Second,
		Promote:        rep1.Promote,
		ExtraMetrics:   []*metrics.Registry{rep1.Registry()},
		Logger:         testLogger(t),
	})

	// F2: the forwarding front door, seeded so it can find the new
	// leader after the old one dies.
	var srv2Ptr atomic.Pointer[server.Server]
	rep2, err := Start(srvA.URL(), Options{
		Retry:        client.RetryPolicy{MaxAttempts: 60, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		StallTimeout: 2 * time.Second,
		Seeds:        []string{srvA.URL(), srv1.URL()},
		OnLeaderChange: func(u string) {
			if s := srv2Ptr.Load(); s != nil {
				s.SetLeaderURL(u)
			}
		},
		Logger: testLogger(t),
	})
	if err != nil {
		shutA()
		t.Fatal(err)
	}
	defer rep2.Stop()
	srv2 := startServer(t, rep2.Views(), server.Options{
		LeaderURL:    srvA.URL(),
		ExtraMetrics: []*metrics.Registry{rep2.Registry()},
		Logger:       testLogger(t),
	})
	srv2Ptr.Store(srv2)

	ctx := context.Background()
	front := client.New(srv2.URL(), nil) // every write goes through F2's forwarding
	type write struct{ src, dst string }
	acked := make(map[string]write) // idempotency key -> the row it inserted
	var maxAcked uint64
	apply := func(key string, w write) {
		t.Helper()
		res, err := front.ApplyWithKey(ctx, key, fmt.Sprintf("+link(%s,%s).", w.src, w.dst))
		if err != nil {
			t.Fatalf("forwarded apply %s: %v", key, err)
		}
		acked[key] = w
		if res.Version > maxAcked {
			maxAcked = res.Version
		}
	}

	// Phase A: keyed load through the forwarding path while A leads.
	for i := 0; i < 30; i++ {
		apply(fmt.Sprintf("phaseA-%d", i), write{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
	}
	// The wedge: acked before the failover, retried after it — the
	// promoted leader must dedup it from its replicated key window.
	apply("wedge", write{"wedge_src", "wedge_dst"})

	// Kill the primary mid-load. Graceful shutdown drains the streams,
	// so every acked version reaches the connected followers.
	if err := shutA(); err != nil {
		t.Fatal(err)
	}

	// A write into the leaderless window fails closed (503, retriable).
	fastFront := client.New(srv2.URL(), nil)
	fastFront.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 1})
	if _, err := fastFront.ApplyWithKey(ctx, "orphan", "+link(orphan_src,orphan_dst)."); err == nil {
		t.Fatal("apply succeeded with no live leader")
	} else if got := client.StatusOf(err); got != http.StatusServiceUnavailable {
		t.Fatalf("leaderless apply status %d, want 503", got)
	}

	// Promote F1 once it holds everything that was acked.
	waitApplied(t, rep1, maxAcked, 15*time.Second)
	pres, err := client.New(srv1.URL(), nil).Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Promoted || pres.Role != "primary" || pres.Epoch != 2 {
		t.Fatalf("promote answered %+v, want promoted primary at epoch 2", pres)
	}
	// Idempotent: promoting a primary is a no-op report, not an error.
	if again, err := client.New(srv1.URL(), nil).Promote(ctx); err != nil || again.Promoted || again.Epoch != 2 {
		t.Fatalf("second promote answered %+v, %v; want non-promoted primary at epoch 2", again, err)
	}
	if got := rep1.Views().FenceEpoch(); got != 2 {
		t.Fatalf("promoted views at fence epoch %d, want 2", got)
	}

	// F2 must re-resolve its upstream to F1 via the seed list and
	// retarget its forwarding proxy.
	deadline := time.Now().Add(15 * time.Second)
	for srv2.LeaderURL() != srv1.URL() {
		if time.Now().After(deadline) {
			t.Fatalf("F2 still forwards to %q, want %q", srv2.LeaderURL(), srv1.URL())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The wedge retry: same key, same script, new leader. The replicated
	// key window must answer it deduped — not apply it twice.
	res, err := front.ApplyWithKey(ctx, "wedge", "+link(wedge_src,wedge_dst).")
	if err != nil {
		t.Fatalf("wedge retry after failover: %v", err)
	}
	if !res.Deduped {
		t.Fatal("wedge retry was re-applied, not deduped — exactly-once broke across the failover")
	}
	// The orphan retry commits now that a leader exists.
	apply("orphan", write{"orphan_src", "orphan_dst"})

	// Phase B: more keyed load through F2, now forwarded to F1.
	for i := 0; i < 20; i++ {
		apply(fmt.Sprintf("phaseB-%d", i), write{fmt.Sprintf("c%d", i), fmt.Sprintf("d%d", i)})
	}

	// Revive the old primary from its own store. It comes back at its
	// persisted epoch 1 — a deposed leader that must be fenced.
	vA2, _, err := ivm.OpenStore(dirA, build)
	if err != nil {
		t.Fatal(err)
	}
	if got := vA2.FenceEpoch(); got != 1 {
		t.Fatalf("revived primary at fence epoch %d, want its persisted 1", got)
	}
	srvA2 := startServer(t, vA2, server.Options{OwnViews: true, Logger: testLogger(t)})
	beforeRevived := vA2.Snapshot().Version()

	// Fence check 1: an epoch-2 follower's replication handshake is
	// refused at connect — the deposed primary never streams stale data.
	resp, err := http.Get(srvA2.URL() + "/v1/replicate?epoch=2&from=" + strconv.FormatUint(beforeRevived, 10))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("revived primary answered the epoch-2 handshake with %d, want 409", resp.StatusCode)
	}

	// Fence check 2: a forwarded apply stamped with the cluster's epoch
	// is refused — the deposed primary cannot commit writes the real
	// cluster would never see.
	req, err := http.NewRequest(http.MethodPost, srvA2.URL()+"/v1/apply", strings.NewReader("+link(split,brain)."))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Ivm-Epoch", "2")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("revived primary accepted an epoch-2 apply with %d, want 409", resp.StatusCode)
	}
	if got := vA2.Snapshot().Version(); got != beforeRevived {
		t.Fatalf("fenced apply still committed on the revived primary: version %d -> %d", beforeRevived, got)
	}
	m, err := client.New(srvA2.URL(), nil).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["replica_fenced_total"] < 2 {
		t.Fatalf("revived primary's replica_fenced_total = %d, want >= 2 (loud rejection)", m["replica_fenced_total"])
	}

	// Convergence: F2 catches up to everything F1 acked and the two
	// survivors are bit-identical at epoch 2 with zero divergence.
	waitApplied(t, rep2, maxAcked, 30*time.Second)
	assertConverged(t, rep1.Views().Snapshot(), rep2)
	if got := rep2.Epoch(); got != 2 {
		t.Fatalf("F2 epoch %d, want 2", got)
	}
	for _, rep := range []*Replica{rep1, rep2} {
		if got := rep.Registry().Snapshot().Counter("replica_divergence_total"); got != 0 {
			t.Fatalf("replica_divergence_total = %d, want 0", got)
		}
	}

	// No acked apply lost: every write whose ack a client saw — phase A
	// before the crash, phase B after — exists on both survivors, once.
	s1, s2 := rep1.Views().Snapshot(), rep2.Views().Snapshot()
	for key, w := range acked {
		if n := s1.Count("link", w.src, w.dst); n != 1 {
			t.Fatalf("acked apply %s: promoted leader holds link(%s,%s) %d times, want 1", key, w.src, w.dst, n)
		}
		if n := s2.Count("link", w.src, w.dst); n != 1 {
			t.Fatalf("acked apply %s: follower holds link(%s,%s) %d times, want 1", key, w.src, w.dst, n)
		}
	}
	if n := s1.Count("link", "split", "brain"); n != 0 {
		t.Fatal("the fenced split-brain write leaked into the survivors")
	}
	t.Logf("failover chaos: %d acked applies survived, epoch %d, fenced %d", len(acked), rep2.Epoch(), m["replica_fenced_total"])
}
