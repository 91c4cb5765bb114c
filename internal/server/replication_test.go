package server

// Tests for the replication serving surface: the /v1/replicate stream
// (bootstrap, tail, window resume, WAL backfill, state fallback,
// heartbeats), follower write rejection, bounded-staleness min_version
// reads, and subscription resume from the views' history.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/replica"
	"ivm/internal/storage"
)

// startReplServer builds a memory-only primary and serves it.
func startReplServer(t *testing.T, opts Options, viewOpts ...ivm.Option) (*ivm.Views, *Server) {
	t.Helper()
	v := buildTestViews(t, viewOpts...)
	srv := New(v, opts)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		v.Shutdown()
	})
	return v, srv
}

// openStream connects to /v1/replicate and returns a record reader.
func openStream(t *testing.T, url string) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// nextRecord reads one record, failing the test on error.
func nextRecord(t *testing.T, br *bufio.Reader) storage.ReplRecord {
	t.Helper()
	rec, err := storage.ReadReplRecord(br)
	if err != nil {
		t.Fatalf("reading replication record: %v", err)
	}
	return rec
}

// nextDataRecord skips heartbeats and returns the next 'D' or 'S'.
func nextDataRecord(t *testing.T, br *bufio.Reader) storage.ReplRecord {
	t.Helper()
	for {
		rec := nextRecord(t, br)
		if rec.Kind != storage.ReplKindHeartbeat {
			return rec
		}
	}
}

// TestReplicateBootstrapAndTail is the happy path: no ?from= leads with
// a full state record at the current version, then every commit arrives
// as a delta in version order, and an idle stream heartbeats.
func TestReplicateBootstrapAndTail(t *testing.T) {
	v, srv := startReplServer(t, Options{ReplHeartbeat: 25 * time.Millisecond})

	br, closeStream := openStream(t, srv.URL()+"/v1/replicate")
	defer closeStream()

	rec := nextDataRecord(t, br)
	if rec.Kind != storage.ReplKindState {
		t.Fatalf("first record kind %q, want state", rec.Kind)
	}
	if got, want := rec.Version, v.Snapshot().Version(); got != want {
		t.Fatalf("state version %d, want %d", got, want)
	}
	st, err := storage.DecodeState(rec.State)
	if err != nil {
		t.Fatal(err)
	}
	if st.Program != v.ProgramSource() {
		t.Fatalf("state program %q, want the primary's", st.Program)
	}

	var want []uint64
	for i := 0; i < 5; i++ {
		cs, err := v.Apply(ivm.NewUpdate().Insert("link", fmt.Sprintf("r%d", i), "z"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs.Version())
	}
	for _, wv := range want {
		rec := nextDataRecord(t, br)
		if rec.Kind != storage.ReplKindDelta || rec.Version != wv {
			t.Fatalf("got kind %q version %d, want delta version %d", rec.Kind, rec.Version, wv)
		}
	}

	// Idle now: a heartbeat must arrive carrying the published version.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := nextRecord(t, br)
		if rec.Kind == storage.ReplKindHeartbeat {
			if rec.Version != want[len(want)-1] {
				t.Fatalf("heartbeat version %d, want %d", rec.Version, want[len(want)-1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat within deadline")
		}
	}
}

// TestReplicateResumeFromWindow: a ?from= inside the views' history
// replays deltas only — no state transfer.
func TestReplicateResumeFromWindow(t *testing.T) {
	v, srv := startReplServer(t, Options{ReplHeartbeat: 25 * time.Millisecond})

	base := v.Snapshot().Version()
	var want []uint64
	for i := 0; i < 4; i++ {
		cs, err := v.Apply(ivm.NewUpdate().Insert("link", fmt.Sprintf("w%d", i), "z"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs.Version())
	}

	br, closeStream := openStream(t, fmt.Sprintf("%s/v1/replicate?from=%d", srv.URL(), base))
	defer closeStream()
	for _, wv := range want {
		rec := nextDataRecord(t, br)
		if rec.Kind != storage.ReplKindDelta || rec.Version != wv {
			t.Fatalf("got kind %q version %d, want delta version %d (no state transfer on window resume)", rec.Kind, rec.Version, wv)
		}
	}
}

// TestReplicateBackfillFromWAL: a resume point that has aged out of the
// history is bridged from the WAL with contiguous deltas.
func TestReplicateBackfillFromWAL(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, ivm.WithHistory(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(v, Options{ReplHeartbeat: 25 * time.Millisecond, OwnViews: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	base := v.Snapshot().Version()
	var want []uint64
	for i := 0; i < 6; i++ {
		cs, err := v.Apply(ivm.NewUpdate().Insert("link", fmt.Sprintf("b%d", i), "z"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs.Version())
	}

	// from=base is 6 commits back; the history holds 2, so the bridge
	// must come from the WAL — still all deltas, in order, gapless.
	br, closeStream := openStream(t, fmt.Sprintf("%s/v1/replicate?from=%d", srv.URL(), base))
	defer closeStream()
	for _, wv := range want {
		rec := nextDataRecord(t, br)
		if rec.Kind != storage.ReplKindDelta || rec.Version != wv {
			t.Fatalf("got kind %q version %d, want delta version %d (WAL backfill)", rec.Kind, rec.Version, wv)
		}
	}
}

// TestReplicateShipsWALPayloadVerbatim pins the sharing: a commit is
// framed once, so the payload of the 'D' record shipped for it — from
// the history and from WAL backfill alike — is byte for byte
// the payload its WAL record holds. Both files are read raw here, with
// the two header layouts spelled out, so the codecs cannot vouch for
// each other.
func TestReplicateShipsWALPayloadVerbatim(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, ivm.WithHistory(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(v, Options{ReplHeartbeat: 25 * time.Millisecond, OwnViews: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	base := v.Snapshot().Version()
	for i := 0; i < 5; i++ {
		u := ivm.NewUpdate().Insert("link", fmt.Sprintf("p%d", i), "z")
		if i%2 == 0 {
			_, _, err = v.ApplyIdempotent(fmt.Sprintf("key-%d", i), u)
		} else {
			_, err = v.Apply(u)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// wal.log: [epoch u64][seq u64][len u32][crc u32][payload] ...
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var logged [][]byte
	for len(wal) > 0 {
		n := binary.BigEndian.Uint32(wal[16:20])
		logged = append(logged, wal[24:24+n])
		wal = wal[24+n:]
	}
	if len(logged) != 5 {
		t.Fatalf("WAL holds %d records, want 5", len(logged))
	}

	// stream: [kind u8][epoch u64][version u64][unixnano i64][len u32][crc u32][payload] ...
	shipped := func(from uint64, n int) [][]byte {
		t.Helper()
		br, closeStream := openStream(t, fmt.Sprintf("%s/v1/replicate?from=%d", srv.URL(), from))
		defer closeStream()
		var out [][]byte
		for len(out) < n {
			var hdr [33]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[25:29]))
			if _, err := io.ReadFull(br, payload); err != nil {
				t.Fatal(err)
			}
			switch hdr[0] {
			case storage.ReplKindDelta:
				out = append(out, payload)
			case storage.ReplKindHeartbeat:
			default:
				t.Fatalf("got a %q record, want deltas only", hdr[0])
			}
		}
		return out
	}
	for name, c := range map[string]struct {
		from uint64
		want [][]byte
	}{
		"window":       {base + 3, logged[3:]},
		"WAL backfill": {base, logged},
	} {
		got := shipped(c.from, len(c.want))
		for i := range c.want {
			if !bytes.Equal(got[i], c.want[i]) {
				t.Errorf("%s: 'D' payload %d differs from the WAL payload:\n shipped %x\n logged  %x", name, i, got[i], c.want[i])
			}
		}
	}
}

// TestReplicateStaleResumeFallsBackToState: with no WAL to bridge from,
// a resume point behind the history gets a full state record at the
// current version instead of a gap.
func TestReplicateStaleResumeFallsBackToState(t *testing.T) {
	v, srv := startReplServer(t, Options{ReplHeartbeat: 25 * time.Millisecond}, ivm.WithHistory(2))

	base := v.Snapshot().Version()
	var last uint64
	for i := 0; i < 6; i++ {
		cs, err := v.Apply(ivm.NewUpdate().Insert("link", fmt.Sprintf("s%d", i), "z"))
		if err != nil {
			t.Fatal(err)
		}
		last = cs.Version()
	}

	br, closeStream := openStream(t, fmt.Sprintf("%s/v1/replicate?from=%d", srv.URL(), base))
	defer closeStream()
	rec := nextDataRecord(t, br)
	if rec.Kind != storage.ReplKindState {
		t.Fatalf("got kind %q version %d, want a state transfer (memory-only primary cannot bridge)", rec.Kind, rec.Version)
	}
	if rec.Version < last {
		t.Fatalf("state version %d, want >= %d", rec.Version, last)
	}
}

// TestFollowerForwardsWrites: a server with LeaderURL proxies applies
// to the leader — Idempotency-Key and fencing epoch ride along, the
// leader's ack comes back verbatim — and reads keep serving locally.
func TestFollowerForwardsWrites(t *testing.T) {
	type seen struct {
		method, path, key, epoch, body string
	}
	var mu sync.Mutex
	var got []seen
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, seen{r.Method, r.URL.Path, r.Header.Get("Idempotency-Key"), r.Header.Get("X-Ivm-Epoch"), string(body)})
		mu.Unlock()
		if r.Method != http.MethodPost || r.URL.Path != "/v1/apply" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"version":42}`)
	}))
	defer leader.Close()

	_, srv := startReplServer(t, Options{LeaderURL: leader.URL})
	c := client.New(srv.URL(), nil)
	ctx := context.Background()

	res, err := c.ApplyWithKey(ctx, "k1", "+link(x,y).")
	if err != nil {
		t.Fatalf("forwarded apply failed: %v", err)
	}
	if res.Version != 42 {
		t.Fatalf("forwarded ack version %d, want the leader's 42", res.Version)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("leader saw %d requests, want exactly 1: %+v", len(got), got)
	}
	fwd := got[0]
	if fwd.method != http.MethodPost || fwd.path != "/v1/apply" {
		t.Fatalf("leader saw %s %s, want POST /v1/apply", fwd.method, fwd.path)
	}
	if fwd.key != "k1" {
		t.Fatalf("leader saw Idempotency-Key %q, want k1", fwd.key)
	}
	if fwd.epoch != "1" {
		t.Fatalf("leader saw X-Ivm-Epoch %q, want 1", fwd.epoch)
	}
	if fwd.body != "+link(x,y)." {
		t.Fatalf("leader saw body %q", fwd.body)
	}
	if _, err := c.Rows(ctx, "hop"); err != nil {
		t.Fatalf("read on follower failed: %v", err)
	}
}

// TestFollowerForwardUnreachableLeader: when the leader is down the
// forward fails closed — 503 plus a Leader-URL header so the client can
// redirect once a new leader exists.
func TestFollowerForwardUnreachableLeader(t *testing.T) {
	const leader = "http://127.0.0.1:1" // nothing listens here
	_, srv := startReplServer(t, Options{LeaderURL: leader})

	c := client.New(srv.URL(), nil)
	c.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 1})
	_, err := c.Apply(context.Background(), "+link(x,y).")
	if err == nil {
		t.Fatal("apply against a dead leader succeeded")
	}
	if got := client.StatusOf(err); got != http.StatusServiceUnavailable {
		t.Fatalf("apply status %d, want 503", got)
	}
	if got := client.LeaderURLOf(err); got != leader {
		t.Fatalf("Leader-URL %q, want %q", got, leader)
	}
}

// TestPrimaryFencesNewerEpoch: a primary that sees a forwarded apply
// stamped with a newer fencing epoch knows it was deposed — the write
// is refused with 409 and counted, never committed.
func TestPrimaryFencesNewerEpoch(t *testing.T) {
	v, srv := startReplServer(t, Options{})
	before := v.Snapshot().Version()

	req, err := http.NewRequest(http.MethodPost, srv.URL()+"/v1/apply", strings.NewReader("+link(q,r)."))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Ivm-Epoch", "7") // the cluster moved on without us
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-primary apply status %d, want 409", resp.StatusCode)
	}
	if got := v.Snapshot().Version(); got != before {
		t.Fatalf("fenced apply still committed: version %d -> %d", before, got)
	}
	m, err := client.New(srv.URL(), nil).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m["replica_fenced_total"] < 1 {
		t.Fatalf("replica_fenced_total = %d, want >= 1", m["replica_fenced_total"])
	}
}

// TestMinVersionReads: a read bounded by min_version waits for the
// version to publish, and times out with 412 + Leader-URL when it
// never does.
func TestMinVersionReads(t *testing.T) {
	const leader = "http://leader.example:7199"
	v, srv := startReplServer(t, Options{LeaderURL: leader, MinVersionWait: 100 * time.Millisecond})
	c := client.New(srv.URL(), nil)
	ctx := context.Background()

	cs, err := v.Apply(ivm.NewUpdate().Insert("link", "m1", "m2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RowsOpts(ctx, "link", client.ReadOptions{MinVersion: cs.Version()}); err != nil {
		t.Fatalf("read at published min_version failed: %v", err)
	}

	// One version ahead of anything published: the wait must lapse into
	// a 412 that names the leader.
	_, err = c.RowsOpts(ctx, "link", client.ReadOptions{MinVersion: cs.Version() + 1})
	if err == nil {
		t.Fatal("read above the published version succeeded")
	}
	if got := client.StatusOf(err); got != http.StatusPreconditionFailed {
		t.Fatalf("status %d, want 412", got)
	}
	if got := client.LeaderURLOf(err); got != leader {
		t.Fatalf("Leader-URL %q, want %q", got, leader)
	}

	// A waiter that starts early must be released by the publish itself.
	done := make(chan error, 1)
	go func() {
		_, err := c.RowsOpts(ctx, "link", client.ReadOptions{MinVersion: cs.Version() + 1})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := v.Apply(ivm.NewUpdate().Insert("link", "m3", "m4")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter not released by publish: %v", err)
	}
}

// TestSubscribeResumeAfterEviction: a subscriber that stalls past its
// buffer is evicted server-side; the client must reconnect with its
// resume point and the history must replay every missed event — the
// consumer sees every committed version exactly once, in order.
func TestSubscribeResumeAfterEviction(t *testing.T) {
	v, srv := startReplServer(t, Options{})
	c := client.New(srv.URL(), nil)
	c.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	sub, err := c.Subscribe(ctx, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Nobody reads the subscription while commits land. Whether that
	// stall alone overflows the one-slot server-side buffer is a matter
	// of scheduling (the stream handler only writes bytes now and usually
	// keeps up), so a third of the way in the hub is made to do what it
	// does to a consumer that fell behind: evict it.
	var want []uint64
	for i := 0; i < 30; i++ {
		if i == 10 {
			srv.hub.mu.Lock()
			for s := range srv.hub.subs {
				srv.hub.evictLocked(s)
			}
			srv.hub.mu.Unlock()
		}
		cs, err := v.Apply(ivm.NewUpdate().
			Insert("link", fmt.Sprintf("e%d", i), fmt.Sprintf("f%d", i)).
			Insert("link", fmt.Sprintf("f%d", i), fmt.Sprintf("g%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs.Version())
	}

	// Drain: with resume, every committed version arrives despite the
	// eviction(s) above.
	got := make(map[uint64]bool)
	var last uint64
	for len(got) < len(want) {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("stream closed early: err=%v got=%d/%d", sub.Err(), len(got), len(want))
			}
			if ev.Hello {
				continue
			}
			if ev.Version <= last {
				t.Fatalf("version %d after %d: duplicates or reordering", ev.Version, last)
			}
			last = ev.Version
			got[ev.Version] = true
		case <-ctx.Done():
			t.Fatalf("timed out with %d/%d events", len(got), len(want))
		}
	}
	for _, wv := range want {
		if !got[wv] {
			t.Fatalf("version %d never delivered", wv)
		}
	}

	// The hub must have recorded at least one eviction and one resume.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["server_sub_evicted_total"] < 1 {
		t.Fatalf("server_sub_evicted_total = %d, want >= 1", m["server_sub_evicted_total"])
	}
	if m["server_sub_resumes_total"] < 1 {
		t.Fatalf("server_sub_resumes_total = %d, want >= 1", m["server_sub_resumes_total"])
	}
}

// TestAckRowsReadBySubscription: an ack is a version, and the rows it
// changed are the event a subscription resumed after the version before
// it opens with — on the primary that committed it, and on a follower
// that forwarded the apply and then folded the commit, byte for byte.
func TestAckRowsReadBySubscription(t *testing.T) {
	_, primary := startReplServer(t, Options{ReplHeartbeat: 20 * time.Millisecond})
	rep, err := replica.Start(primary.URL(), replica.Options{Retry: client.RetryPolicy{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	follower := New(rep.Views(), Options{LeaderURL: primary.URL()})
	if err := follower.Start(); err != nil {
		t.Fatal(err)
	}
	defer follower.Shutdown(context.Background())
	ctx := context.Background()
	for _, via := range []*Server{primary, follower} {
		res, err := client.New(via.URL(), nil).Apply(ctx, "+link(c,d). -link(a,b).")
		if err != nil {
			t.Fatal(err)
		}
		ev, line := eventAt(t, primary.URL(), res.Version)
		if len(ev.Deltas) != 1 || ev.Deltas[0].Pred != "hop" || len(ev.Deltas[0].Inserted) != 1 || len(ev.Deltas[0].Deleted) != 1 {
			t.Fatalf("applied through %s: version %d's event is %s", via.URL(), res.Version, line)
		}
		for deadline := time.Now().Add(10 * time.Second); rep.Applied() < res.Version; time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the follower is stuck at version %d, want %d", rep.Applied(), res.Version)
			}
		}
		if _, folded := eventAt(t, follower.URL(), res.Version); !bytes.Equal(folded, line) {
			t.Fatalf("version %d's event on the follower:\n %s on the primary:\n %s", res.Version, folded, line)
		}
		if _, err := client.New(via.URL(), nil).Apply(ctx, "-link(c,d). +link(a,b)."); err != nil {
			t.Fatal(err)
		}
	}
}
