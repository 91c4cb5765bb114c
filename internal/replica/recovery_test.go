package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"ivm"
	"ivm/internal/server"
	"ivm/internal/storage"
)

// TestRecoveryEqualsFollower: crash recovery and a follower's tail are
// the same fold over the same commit records, so after one seeded stream
// of keyed, unkeyed and coalesced applies a killed-and-reopened primary,
// a follower that tailed it, and a from-scratch recomputation of the
// acked scripts must agree on rows, counts, the published version and
// the dedup answer for every key — and both replay sites must stop with
// the same typed error on a record stamped for a different version.
func TestRecoveryEqualsFollower(t *testing.T) {
	const program = `hop(X,Y) :- link(X,Z), link(Z,Y).`
	const facts = `link(a,b). link(b,c).`
	build := func(opts ...ivm.Option) (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(facts)
		return db.Materialize(program, opts...)
	}
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) { return build() }, ivm.WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(v, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	rep, err := Start(srv.URL(), Options{Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	// The stream. Sequential rounds insert and delete; a burst round
	// fires concurrent insert-only applies of fresh tuples, which the
	// scheduler coalesces into shared records (and which commute, so the
	// oracle may replay them in any order within a version).
	type ack struct {
		version uint64
		script  string
		key     string // "" for an unkeyed apply
	}
	var (
		mu    sync.Mutex
		acked []ack
	)
	apply := func(key string, u *ivm.Update) {
		script := u.String()
		var cs *ivm.ChangeSet
		var err error
		if key == "" {
			cs, err = v.Apply(u)
		} else {
			cs, _, err = v.ApplyIdempotent(key, u)
		}
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		acked = append(acked, ack{cs.Version(), script, key})
		mu.Unlock()
	}
	rng := rand.New(rand.NewSource(15))
	live := [][2]string{{"a", "b"}, {"b", "c"}}
	fresh := 0
	for round := 0; round < 30; round++ {
		key := ""
		if rng.Intn(3) > 0 {
			key = fmt.Sprintf("key-%d", round)
		}
		if rng.Intn(3) == 0 {
			var wg sync.WaitGroup
			for i := 0; i < 2+rng.Intn(4); i++ {
				fresh++
				p := [2]string{fmt.Sprintf("n%d", rng.Intn(6)), fmt.Sprintf("f%d", fresh)}
				live = append(live, p)
				k := key
				if k != "" {
					k = fmt.Sprintf("%s-%d", key, i)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					apply(k, ivm.NewUpdate().Insert("link", p[0], p[1]))
				}()
			}
			wg.Wait()
			continue
		}
		u := ivm.NewUpdate()
		if len(live) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			u.Delete("link", live[i][0], live[i][1])
			live = append(live[:i], live[i+1:]...)
		}
		fresh++
		p := [2]string{fmt.Sprintf("f%d", fresh), fmt.Sprintf("n%d", rng.Intn(6))}
		u.Insert("link", p[0], p[1])
		live = append(live, p)
		apply(key, u)
	}
	if t.Failed() {
		t.FailNow()
	}
	last := v.Snapshot().Version()
	waitApplied(t, rep, last, 30*time.Second)

	// Kill the primary: no checkpoint, so everything since the initial
	// one comes back through WAL replay.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := ivm.OpenStore(dir, nil, ivm.WithGroupCommit())
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed == 0 || info.Replayed > len(acked) {
		t.Fatalf("recovery replayed %d records for %d acked applies", info.Replayed, len(acked))
	}
	t.Logf("%d acked applies in %d commit records", len(acked), info.Replayed)

	oracle, err := build(ivm.WithStrategy(ivm.Recompute))
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(acked, func(i, j int) bool { return acked[i].version < acked[j].version })
	for _, a := range acked {
		if _, err := oracle.ApplyScript(a.script); err != nil {
			t.Fatalf("oracle: %s: %v", a.script, err)
		}
	}
	follower := rep.Views()
	for name, got := range map[string]*ivm.Views{"recovered primary": recovered, "follower": follower} {
		if got.Snapshot().Version() != last {
			t.Errorf("%s is at version %d, want %d", name, got.Snapshot().Version(), last)
		}
		for _, pred := range []string{"link", "hop"} {
			g, w := got.Rows(pred), oracle.Rows(pred)
			if len(g) != len(w) {
				t.Fatalf("%s: %s has %d rows, recomputation %d", name, pred, len(g), len(w))
			}
			for i := range w {
				if !g[i].Tuple.Equal(w[i].Tuple) || g[i].Count != w[i].Count {
					t.Fatalf("%s: %s row %d: %v*%d, recomputation %v*%d", name, pred, i, g[i].Tuple, g[i].Count, w[i].Tuple, w[i].Count)
				}
			}
		}
		// Every key answers from the window, with the version its apply
		// was acked at; a miss would re-apply and show up as !deduped.
		for _, a := range acked {
			if a.key == "" {
				continue
			}
			cs, deduped, err := got.ApplyScriptIdempotent(a.key, a.script)
			if err != nil || !deduped || cs.Version() != a.version {
				t.Fatalf("%s: retry of %s: deduped=%v err=%v version=%v, want a dedup at version %d", name, a.key, deduped, err, cs, a.version)
			}
		}
	}

	// Divergence. The follower is handed a record two versions ahead ...
	var ahead *ivm.DivergenceError
	_, err = follower.ApplyCommitRecord(ivm.CommitRecord{Version: last + 2, Script: "+link(x,y)."})
	if !errors.As(err, &ahead) || ahead.Version != last+2 || ahead.At != last {
		t.Fatalf("follower, record two ahead: %v, want a DivergenceError{%d at %d}", err, last+2, last)
	}
	if follower.Has("link", "x", "y") || follower.Snapshot().Version() != last {
		t.Fatal("a refused record must not be applied")
	}
	// ... and recovery finds one two versions behind at the end of its log.
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenStore(dir, storage.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wait, err := st.AppendVersionedAsync(last-1, "+link(x,y).", nil)
	if err == nil {
		err = wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	var behind *ivm.DivergenceError
	_, _, err = ivm.OpenStore(dir, nil)
	if !errors.As(err, &behind) || behind.Version != last-1 || behind.At != last {
		t.Fatalf("recovery, record two behind: %v, want a DivergenceError{%d at %d}", err, last-1, last)
	}
}
