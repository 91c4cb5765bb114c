package server

// The chaos gauntlet (ISSUE 8 acceptance): N concurrent appliers drive
// keyed applies through a fault-injection proxy (drops, delays,
// mid-body resets, swallowed acks) at a ≥20% fault rate, the daemon is
// hard-killed and restarted mid-run (WAL close without checkpoint, then
// recovery replay), and at the end the engine state must be
// bit-identical to ONE clean application of every acked script — zero
// duplicate applies, zero lost acks. Duplicate semantics make any
// double apply visible as a count of 2.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/faultnet"
)

const (
	chaosAppliers  = 24 // concurrent appliers (acceptance floor: 20)
	chaosPerClient = 6  // applies per applier
	chaosFraction  = 0.25
)

func chaosInit() (*ivm.Views, error) {
	db := ivm.NewDatabase()
	if err := db.Load(`hit(seed,seed).`); err != nil {
		return nil, err
	}
	return db.Materialize(`mirror(X,Y) :- hit(X,Y).`, ivm.WithSemantics(ivm.DuplicateSemantics))
}

// stateOf flattens the views' full state (every predicate, every tuple,
// every count) into a sorted, comparable form.
func stateOf(t *testing.T, rd interface {
	Preds() []string
	Rows(string) []ivm.Row
}) []string {
	t.Helper()
	var out []string
	for _, pred := range rd.Preds() {
		for _, r := range rd.Rows(pred) {
			out = append(out, fmt.Sprintf("%s%v=%d", pred, r.Tuple, r.Count))
		}
	}
	sort.Strings(out)
	return out
}

func TestChaosGauntletExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gauntlet skipped in -short")
	}
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, chaosInit, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	// The test owns the views (OwnViews false) because it kills and
	// restarts the server around them mid-run.
	srv := New(v, Options{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	logPath := os.Getenv("CHAOS_LOG")
	if logPath == "" {
		logPath = filepath.Join(t.TempDir(), "faults.log")
	}
	proxy, err := faultnet.New(faultnet.Options{
		Target:   srv.Addr(),
		Fraction: chaosFraction,
		Seed:     8, // deterministic fault schedule
		Delay:    5 * time.Millisecond,
		LogPath:  logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// One shared client through the proxy. Keep-alives are disabled so
	// every attempt opens a fresh (faultable) connection, and the
	// header timeout converts a black-holed attempt into a retry.
	hc := &http.Client{Transport: &http.Transport{
		DisableKeepAlives:     true,
		ResponseHeaderTimeout: 10 * time.Second,
	}}
	c := client.New(proxy.URL(), hc)
	c.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond})

	script := func(applier, i int) string { return fmt.Sprintf("+hit(a%d,s%d).", applier, i) }
	key := func(applier, i int) string { return fmt.Sprintf("chaos-%d-%d", applier, i) }

	var acked atomic.Int64
	versions := make([][]uint64, chaosAppliers)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for a := 0; a < chaosAppliers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < chaosPerClient; i++ {
				// Outer retry-until-acked under a STABLE key: the inner
				// RetryPolicy gives up after a few attempts, but the key
				// makes even a fresh outer round exactly-once.
				for {
					res, err := c.ApplyWithKey(ctx, key(a, i), script(a, i))
					if err == nil {
						versions[a] = append(versions[a], res.Version)
						acked.Add(1)
						break
					}
					if ctx.Err() != nil {
						t.Errorf("applier %d gave up on apply %d: %v", a, i, err)
						return
					}
				}
			}
		}(a)
	}

	// Kill-and-restart mid-run: once half the applies are acked, drain
	// the HTTP server, close the WAL WITHOUT a checkpoint (a crash, as
	// far as recovery is concerned), reopen, and repoint the proxy.
	half := int64(chaosAppliers * chaosPerClient / 2)
	for acked.Load() < half && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("mid-run shutdown: %v", err)
	}
	shutdownCancel()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, info, err := ivm.OpenStore(dir, nil, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatalf("reopen after mid-run kill: %v", err)
	}
	if info.Replayed == 0 {
		t.Error("restart must replay WAL records (no checkpoint was taken)")
	}
	srv2 := New(v2, Options{})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		v2.Shutdown()
	}()
	proxy.SetTarget(srv2.Addr())

	wg.Wait()
	if t.Failed() {
		t.Fatalf("appliers failed; proxy stats %+v, fault log at %s", proxy.Stats(), logPath)
	}
	// Let the post-restart state settle (applies all acked by now).
	v2.Drain()

	// 1. Zero duplicate applies: every acked script's tuple has count
	// exactly 1 (duplicate semantics would show 2 for a double apply),
	// and every acked apply is present.
	snap := v2.Snapshot()
	for a := 0; a < chaosAppliers; a++ {
		for i := 0; i < chaosPerClient; i++ {
			got := snap.Count("hit", fmt.Sprintf("a%d", a), fmt.Sprintf("s%d", i))
			if got != 1 {
				t.Errorf("hit(a%d,s%d) count = %d, want exactly 1", a, i, got)
			}
		}
	}

	// 2. Engine state is bit-identical to one clean application of
	// every acked script.
	clean, err := chaosInit()
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < chaosAppliers; a++ {
		for i := 0; i < chaosPerClient; i++ {
			if _, err := clean.ApplyScript(script(a, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	gotState, wantState := stateOf(t, snap), stateOf(t, clean.Snapshot())
	if strings.Join(gotState, "\n") != strings.Join(wantState, "\n") {
		t.Errorf("final state diverges from one clean application:\n got: %v\nwant: %v", gotState, wantState)
	}

	// 3. Every applier got a versioned ack for every apply (version ids
	// restart at recovery, so acks are checked for presence, not
	// global monotonicity — each acked apply's tuple was verified
	// present above).
	for a, vs := range versions {
		if len(vs) != chaosPerClient {
			t.Errorf("applier %d acked %d applies, want %d", a, len(vs), chaosPerClient)
		}
		for i, ver := range vs {
			if ver == 0 {
				t.Errorf("applier %d apply %d acked with version 0", a, i)
			}
		}
	}

	// 4. The chaos actually happened: faults were injected, the client
	// retried, and the server deduped at least one retry.
	pst := proxy.Stats()
	if pst.Faulted == 0 {
		t.Fatalf("no faults injected — gauntlet proved nothing: %+v", pst)
	}
	cst := c.Stats()
	if cst.Retries == 0 {
		t.Errorf("client never retried under %d injected faults: %+v", pst.Faulted, cst)
	}
	m := v2.Metrics()
	serverDedups := m.Counter("sched_idem_dedup_total")
	if cst.Deduped == 0 && serverDedups == 0 {
		t.Logf("warning: no retry was deduped (faults may have all hit pre-commit); proxy=%+v client=%+v", pst, cst)
	}
	t.Logf("chaos: proxy=%+v client=%+v server_dedups=%d replayed=%d", pst, cst, serverDedups, info.Replayed)

	// 5. A final clean reopen retains everything.
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := v2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v3, _, err := ivm.OpenStore(dir, nil, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Shutdown()
	if final := stateOf(t, v3.Snapshot()); strings.Join(final, "\n") != strings.Join(wantState, "\n") {
		t.Errorf("state after final reopen diverges:\n got: %v\nwant: %v", final, wantState)
	}
}
