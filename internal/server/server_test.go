package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ivm/client"
)

// startTestServer boots a real server on a random port over fresh
// views and returns a client for it. The server is shut down with the
// test.
func startTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	v := buildTestViews(t)
	opts.OwnViews = true
	srv := New(v, opts)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, client.New(srv.URL(), nil)
}

// eventAt reads what the apply acked at version ver changed as a
// subscriber does: the event a subscription resumed after ver−1 opens
// with, decoded and as served.
func eventAt(t *testing.T, url string, ver uint64) (client.Event, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/subscribe?from=%d", url, ver-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream := bufio.NewReader(resp.Body)
	if hello, err := stream.ReadBytes('\n'); err != nil || !bytes.Contains(hello, []byte(`"hello":true`)) {
		t.Fatalf("resume from %d: hello %q, %v", ver-1, hello, err)
	}
	line, err := stream.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var ev client.Event
	if err := json.Unmarshal(line, &ev); err != nil || ev.Version != ver {
		t.Fatalf("resume from %d opens with %s (%v), want version %d's event", ver-1, line, err, ver)
	}
	return ev, line
}

func TestHTTPApplyQueryRoundtrip(t *testing.T) {
	srv, c := startTestServer(t, Options{})
	ctx := context.Background()

	res, err := c.Apply(ctx, `+link(a,d). +link(d,e).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version == 0 {
		t.Fatal("apply did not report a version")
	}
	ev, _ := eventAt(t, srv.URL(), res.Version)
	found := false
	for _, d := range ev.Deltas {
		if d.Pred == "hop" {
			found = true
		}
	}
	if !found {
		t.Fatalf("the event of version %d lacks hop: %+v", res.Version, ev.Deltas)
	}

	q, err := c.Query(ctx, `hop(a,X)`)
	if err != nil {
		t.Fatal(err)
	}
	var bound []string
	for _, r := range q.Results {
		bound = append(bound, r.Bindings["X"])
	}
	if strings.Join(bound, ",") != "c,e" {
		t.Fatalf("hop(a,X) bindings = %v, want [c e]", bound)
	}

	cnt, err := c.Count(ctx, `hop(a,c)`)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != 1 || !cnt.Has {
		t.Fatalf("count hop(a,c) = %+v", cnt)
	}
	has, err := c.Has(ctx, `hop(z,z)`)
	if err != nil {
		t.Fatal(err)
	}
	if has {
		t.Fatal("hop(z,z) should be absent")
	}
	if _, err := c.Count(ctx, `hop(a,X)`); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("non-ground count: got %v, want http 400", err)
	}

	rows, err := c.Rows(ctx, "hop")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Fatalf("hop rows = %+v, want 2", rows.Rows)
	}

	ex, err := c.Explain(ctx, `hop(a,c)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Derivations) != 1 || len(ex.Derivations[0].Subgoals) != 2 {
		t.Fatalf("explain hop(a,c) = %+v", ex.Derivations)
	}

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != "counting" || info.Rules != 1 {
		t.Fatalf("info = %+v", info)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["server_requests_total"] == 0 {
		t.Fatalf("metrics missing server_requests_total: %d keys", len(m))
	}
	if _, ok := m["counting_applies_total"]; !ok {
		t.Fatal("metrics missing engine series counting_applies_total")
	}
}

func TestHTTPApplyErrors(t *testing.T) {
	_, c := startTestServer(t, Options{MaxBodyBytes: 128})
	ctx := context.Background()

	if _, err := c.Apply(ctx, `+link(a,b`); err == nil {
		t.Fatal("malformed script did not error")
	}
	if _, err := c.Apply(ctx, `-link(zz,zz).`); err == nil {
		t.Fatal("deleting an absent tuple did not error")
	}
	if _, err := c.Apply(ctx, "   "); err == nil {
		t.Fatal("empty script did not error")
	}
	big := strings.Repeat("+link(a,b). ", 100)
	if _, err := c.Apply(ctx, big); err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized body: got %v, want http 413", err)
	}
}

func TestSessionRepeatableRead(t *testing.T) {
	_, c := startTestServer(t, Options{})
	ctx := context.Background()

	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Count(ctx, `hop(a,c)`)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent update: the live view moves, the session must not.
	if _, err := c.Apply(ctx, `-link(a,b).`); err != nil {
		t.Fatal(err)
	}
	liveCnt, err := c.Count(ctx, `hop(a,c)`)
	if err != nil {
		t.Fatal(err)
	}
	if liveCnt.Has {
		t.Fatal("live view still has hop(a,c) after deleting link(a,b)")
	}
	after, err := sess.Count(ctx, `hop(a,c)`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count || !after.Has {
		t.Fatalf("session read moved: before %+v after %+v", before, after)
	}
	if after.Version != sess.Version {
		t.Fatalf("session read at version %d, pinned %d", after.Version, sess.Version)
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Count(ctx, `hop(a,c)`); err == nil {
		t.Fatal("read through a closed session did not error")
	}
	if err := sess.Close(ctx); err == nil {
		t.Fatal("double session close did not error")
	}
}

func TestSessionExpiry(t *testing.T) {
	_, c := startTestServer(t, Options{SessionTTL: 50 * time.Millisecond})
	ctx := context.Background()
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := sess.Rows(ctx, "hop"); err == nil {
		t.Fatal("expired session still served reads")
	}
}

func TestSubscribeStream(t *testing.T) {
	_, c := startTestServer(t, Options{})
	ctx := context.Background()

	sub, err := c.Subscribe(ctx, []string{"hop"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	hello, ok := <-sub.Events()
	if !ok || !hello.Hello {
		t.Fatalf("expected hello event, got %+v (open=%v)", hello, ok)
	}

	res, err := c.Apply(ctx, `+link(a,f). +link(f,g).`)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		if ev.Version != res.Version {
			t.Fatalf("event version %d, apply acked %d", ev.Version, res.Version)
		}
		if len(ev.Deltas) != 1 || ev.Deltas[0].Pred != "hop" {
			t.Fatalf("event deltas = %+v, want hop only (pred filter)", ev.Deltas)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event within 5s of an acked apply")
	}

	// A link-only filter must not see hop-only noise — apply a change
	// that touches hop but subscribe to a predicate that never changes.
	other, err := c.Subscribe(ctx, []string{"never_changes"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	<-other.Events() // hello
	if _, err := c.Apply(ctx, `+link(f,h).`); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, ok := <-other.Events():
		if ok {
			t.Fatalf("filtered subscriber got unexpected event %+v", ev)
		}
	case <-time.After(200 * time.Millisecond):
		// expected: nothing delivered
	}
}

func TestSubscribeShutdownClosesStream(t *testing.T) {
	v := buildTestViews(t)
	srv := New(v, Options{OwnViews: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c := client.New(srv.URL(), nil)
	sub, err := c.Subscribe(context.Background(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-sub.Events() // hello

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-sub.Events():
			if !ok {
				if err := sub.Err(); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("stream ended with %v, want clean close", err)
				}
				if err := <-done; err != nil {
					t.Fatalf("shutdown: %v", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("subscription did not close on shutdown")
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	srv, _ := startTestServer(t, Options{RequestTimeout: time.Nanosecond})
	resp, err := http.Get(srv.URL() + "/v1/rows?pred=hop")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 on timeout", resp.StatusCode)
	}
}
