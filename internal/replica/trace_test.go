package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"ivm"
	"ivm/internal/server"
)

// TestTraceFollowsAKeyedApplyOntoTheFollower follows one keyed apply by
// its version from its enqueue on the primary to its publish on a
// follower: GET /v1/trace?version=V on the two nodes carries the same
// key, the follower's trace carries the primary's publish time to the
// nanosecond (the 'D' frame's stamp), receives the record at or after it,
// and spends at least its batch wait and its fold of it before it
// publishes it.
func TestTraceFollowsAKeyedApplyOntoTheFollower(t *testing.T) {
	v := buildPrimaryViews(t)
	defer v.Shutdown()
	primary := startServer(t, v, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	rep, err := Start(primary.URL(), Options{Retry: fastRetry, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	follower := startServer(t, rep.Views(), server.Options{LeaderURL: primary.URL()})

	cs, _, err := v.ApplyIdempotent("k-7", ivm.NewUpdate().Insert("link", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, rep, cs.Version(), 10*time.Second)
	trace := func(url string) ivm.ApplyTrace {
		resp, err := http.Get(fmt.Sprintf("%s/v1/trace?version=%d", url, cs.Version()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr ivm.ApplyTrace
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("trace of version %d from %s: %d, %v", cs.Version(), url, resp.StatusCode, err)
		}
		return tr
	}
	p, f := trace(primary.URL()), trace(follower.URL())
	if !slices.Equal(p.Keys, []string{"k-7"}) || !slices.Equal(f.Keys, p.Keys) || p.Version != f.Version {
		t.Fatalf("version %d: the primary traces keys %v, the follower %v", cs.Version(), p.Keys, f.Keys)
	}
	if p.Enqueued.IsZero() || p.Published.Before(p.Enqueued) || !p.PrimaryPublished.IsZero() || p.Fold != 0 {
		t.Errorf("the primary's trace: enqueued %v, published %v, primary published %v, fold %v", p.Enqueued, p.Published, p.PrimaryPublished, p.Fold)
	}
	if !f.PrimaryPublished.Equal(p.Published) {
		t.Errorf("the follower stamps the primary's publish %v, the primary traced %v", f.PrimaryPublished, p.Published)
	}
	if f.Enqueued.Before(f.PrimaryPublished) || f.Fold <= 0 || f.Published.Sub(f.Enqueued) < f.Wait+f.Fold {
		t.Errorf("the follower received version %d at %v (primary published %v), waited %v, folded it in %v and published it at %v",
			cs.Version(), f.Enqueued, f.PrimaryPublished, f.Wait, f.Fold, f.Published)
	}
}
