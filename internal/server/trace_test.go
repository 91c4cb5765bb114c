package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"ivm"
)

// getTrace reads GET /v1/trace?version=… and decodes a 200's trace.
func getTrace(t *testing.T, url, version string) (int, ivm.ApplyTrace, string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace?version=" + version)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var tr ivm.ApplyTrace
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("trace not JSON: %v (%s)", err, body)
		}
	}
	return resp.StatusCode, tr, string(body)
}

// TestTraceFollowsAKeyedApply follows one keyed apply on a store-bound
// server from its ack's version to its trace: the key, the WAL append and
// fsync wait, one record per stratum, and the stats Views.Trace reads
// right after the apply. A retry of the key is deduped onto the same
// version, so onto the same trace; a version the two-commit history has
// dropped answers 410, one not yet published 404, and a bad one 400.
func TestTraceFollowsAKeyedApply(t *testing.T) {
	v, _, err := ivm.OpenStore(t.TempDir(), func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`
			hop(X,Y) :- link(X,Z), link(Z,Y).
			tri(X,Y) :- hop(X,Z), link(Z,Y).`, ivm.WithHistory(2))
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(v, Options{OwnViews: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	resp, ack, body := postApply(t, srv.URL(), "k1", "+link(c,d).")
	if resp.StatusCode != http.StatusOK || ack.Deduped {
		t.Fatalf("apply: %d %s", resp.StatusCode, body)
	}
	direct := v.Trace()
	n := fmt.Sprint(ack.Version)
	status, tr, first := getTrace(t, srv.URL(), n)
	if status != http.StatusOK {
		t.Fatalf("trace of version %s: %d %s", n, status, first)
	}
	if tr.Version != ack.Version || direct.Version != ack.Version || !slices.Equal(tr.Keys, []string{"k1"}) {
		t.Fatalf("the ack's version %d is traced as %+v, Views.Trace as %+v", ack.Version, tr, direct)
	}
	if tr.Wait <= 0 || tr.WALAppend <= 0 || tr.FsyncWait <= 0 || tr.Published.IsZero() {
		t.Fatalf("trace %+v lacks its batch wait, WAL append, fsync wait or publish time", tr)
	}
	if tr.Stats != direct.Stats || tr.Stats.DeltaTuples == 0 || tr.Strategy != ivm.Counting {
		t.Fatalf("traced stats %+v under %v, Views.Trace's %+v", tr.Stats, tr.Strategy, direct.Stats)
	}
	if len(tr.Strata) != 2 || tr.Strata[0].Stratum != 1 || tr.Strata[1].Stratum != 2 ||
		tr.Strata[0].Algorithm != "counting" || tr.Strata[0].Delta != 1 || tr.Strata[0].Wall <= 0 {
		t.Fatalf("strata %+v, want one counting record for hop and one for tri", tr.Strata)
	}

	// A retry of the key lands on the same version: the same trace.
	resp, retry, body := postApply(t, srv.URL(), "k1", "+link(c,d).")
	if resp.StatusCode != http.StatusOK || !retry.Deduped || retry.Version != ack.Version {
		t.Fatalf("retry: %d %s", resp.StatusCode, body)
	}
	if status, _, again := getTrace(t, srv.URL(), n); status != http.StatusOK || again != first {
		t.Fatalf("the retry's trace: %d\n%s\nthe first:\n%s", status, again, first)
	}

	for _, script := range []string{"+link(d,e).", "+link(e,f)."} {
		if resp, _, body := postApply(t, srv.URL(), "", script); resp.StatusCode != http.StatusOK {
			t.Fatalf("apply: %d %s", resp.StatusCode, body)
		}
	}
	for version, want := range map[string]int{
		n:                           http.StatusGone,
		fmt.Sprint(ack.Version + 2): http.StatusOK,
		fmt.Sprint(ack.Version + 3): http.StatusNotFound,
		"0":                         http.StatusBadRequest,
		"next":                      http.StatusBadRequest,
	} {
		if status, _, body := getTrace(t, srv.URL(), version); status != want {
			t.Errorf("trace of version %q: %d %s, want %d", version, status, body, want)
		}
	}
}
