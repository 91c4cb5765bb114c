package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ivm"
	"ivm/client"
)

// postApply sends POST /v1/apply with an optional Idempotency-Key and
// decodes the response.
func postApply(t *testing.T, url, key, script string) (*http.Response, client.ApplyResult, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/apply", strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ar client.ApplyResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatalf("apply response not JSON: %v (%s)", err, body)
		}
	}
	return resp, ar, string(body)
}

func TestHTTPApplyIdempotencyKey(t *testing.T) {
	srv, c := startTestServer(t, Options{})
	ctx := context.Background()

	resp, first, _ := postApply(t, srv.URL(), "req-1", "+link(a,z). +link(z,y).")
	if resp.StatusCode != http.StatusOK || first.Deduped {
		t.Fatalf("first keyed apply: status %d deduped=%v", resp.StatusCode, first.Deduped)
	}
	if ev, _ := eventAt(t, srv.URL(), first.Version); len(ev.Deltas) == 0 {
		t.Fatal("the first apply's version must carry its deltas")
	}
	resp, second, body := postApply(t, srv.URL(), "req-1", "+link(a,z). +link(z,y).")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d", resp.StatusCode)
	}
	// A deduped reply is the original version and the flag, nothing else.
	if want := fmt.Sprintf("{\"version\":%d,\"deduped\":true}\n", first.Version); body != want {
		t.Fatalf("deduped reply = %q, want %q", body, want)
	}
	if !second.Deduped {
		t.Fatal("retry with the same Idempotency-Key must report deduped")
	}
	if second.Version != first.Version {
		t.Fatalf("retry acked version %d, original %d — must return the original result", second.Version, first.Version)
	}
	cnt, err := c.Count(ctx, "link(a,z)")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count != 1 {
		t.Fatalf("link(a,z) count = %d, want 1 (retry double-applied)", cnt.Count)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["server_apply_dedup_total"] != 1 {
		t.Fatalf("server_apply_dedup_total = %d, want 1", m["server_apply_dedup_total"])
	}
	if m["sched_idem_dedup_total"] != 1 {
		t.Fatalf("sched_idem_dedup_total = %d, want 1", m["sched_idem_dedup_total"])
	}

	// An unkeyed apply of the same script is a fresh application.
	if _, res, _ := postApply(t, srv.URL(), "", "+link(a,z)."); res.Deduped {
		t.Fatal("unkeyed apply must never dedup")
	}

	// Over-long keys are rejected up front, before touching the engine.
	resp, _, body = postApply(t, srv.URL(), strings.Repeat("k", ivm.MaxIdempotencyKeyLen+1), "+link(q,q).")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-long key: status %d (%s), want 400", resp.StatusCode, body)
	}
	if has, err := c.Has(ctx, "link(q,q)"); err != nil || has {
		t.Fatalf("rejected keyed apply must not apply (has=%v err=%v)", has, err)
	}
}

// The TimeoutHandler 503 must be parseable by client.do: JSON body,
// application/json Content-Type, and a Retry-After hint.
func TestTimeoutResponseIsJSONWithRetryAfter(t *testing.T) {
	srv, _ := startTestServer(t, Options{RequestTimeout: time.Nanosecond})
	resp, err := http.Get(srv.URL() + "/v1/rows?pred=hop")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("timeout Content-Type = %q, want application/json", ct)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout 503 must carry Retry-After")
	}
	var er client.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("timeout body must be an ErrorResponse: %v (%+v)", err, er)
	}
}

// The success path must keep each handler's own Content-Type despite
// the timed wrapper pre-setting application/json (the metrics
// exposition is the one non-JSON route).
func TestMetricsContentTypeSurvivesTimedWrapper(t *testing.T) {
	srv, _ := startTestServer(t, Options{})
	resp, err := http.Get(srv.URL() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q, want text/plain", ct)
	}
}

// A 503 from the store-closed path carries Retry-After so clients know
// the condition is retryable (e.g. a daemon restarting behind a proxy).
func TestStoreClosedRetryAfter(t *testing.T) {
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(v, Options{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	resp, _, _ := postApply(t, srv.URL(), "", "+link(x,y).")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("apply on closed store: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("store-closed 503 must carry Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("store-closed Content-Type = %q, want application/json", ct)
	}
}
