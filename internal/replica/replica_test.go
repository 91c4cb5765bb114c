package replica

// Follower tests: bootstrap + tail, the primary≡replica convergence
// property battery (random workloads through a fault-injecting proxy),
// the divergence guard (a gap in the version sequence is never skipped
// silently), and the kill-and-restart chaos run against a store-bound
// primary.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/faultnet"
	"ivm/internal/server"
)

// fastRetry keeps test reconnect latency in the milliseconds.
var fastRetry = client.RetryPolicy{MaxAttempts: 20, BaseDelay: 3 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

func buildPrimaryViews(t *testing.T, opts ...ivm.Option) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func startServer(t *testing.T, v *ivm.Views, opts server.Options) *server.Server {
	t.Helper()
	srv := server.New(v, opts)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// waitApplied blocks until rep has applied at least version, failing
// the test if replication dies or the deadline lapses.
func waitApplied(t *testing.T, rep *Replica, version uint64, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for rep.Applied() < version {
		select {
		case <-rep.Done():
			t.Fatalf("replication ended at version %d (want %d): %v", rep.Applied(), version, rep.Err())
		default:
		}
		if time.Now().After(end) {
			t.Fatalf("follower stuck at version %d, want %d", rep.Applied(), version)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertConverged requires the follower's state at the primary
// snapshot's version to be bit-identical: same predicates, same rows,
// same counts, and the same Explain derivations.
func assertConverged(t *testing.T, primary *ivm.Snapshot, rep *Replica) {
	t.Helper()
	got := rep.Views().Snapshot()
	if got.Version() != primary.Version() {
		t.Fatalf("versions differ: follower %d, primary %d", got.Version(), primary.Version())
	}
	wp, gp := primary.Preds(), got.Preds()
	if len(wp) != len(gp) {
		t.Fatalf("predicate sets differ: %v != %v", wp, gp)
	}
	for i, pred := range wp {
		if gp[i] != pred {
			t.Fatalf("predicate sets differ: %v != %v", wp, gp)
		}
		a, b := primary.Rows(pred), got.Rows(pred)
		if len(a) != len(b) {
			t.Fatalf("%s: primary %d rows, follower %d", pred, len(a), len(b))
		}
		for j := range a {
			if !a[j].Tuple.Equal(b[j].Tuple) || a[j].Count != b[j].Count {
				t.Fatalf("%s row %d: primary %v*%d, follower %v*%d",
					pred, j, a[j].Tuple, a[j].Count, b[j].Tuple, b[j].Count)
			}
		}
	}
	// Explain must agree too: the derivations, not just the rows.
	// Explain needs a ground goal, so explain every derived row both
	// sides hold.
	for _, row := range primary.Rows("hop") {
		goal := fmt.Sprintf("hop(%s,%s)", row.Tuple[0], row.Tuple[1])
		wantEx, err1 := primary.Explain(goal)
		gotEx, err2 := got.Explain(goal)
		if err1 != nil || err2 != nil {
			t.Fatalf("explain %s: primary err %v, follower err %v", goal, err1, err2)
		}
		if fmt.Sprint(wantEx) != fmt.Sprint(gotEx) {
			t.Fatalf("explain %s differs:\nprimary:  %v\nfollower: %v", goal, wantEx, gotEx)
		}
	}
}

// TestReplicaBootstrapAndTail is the direct-connection happy path:
// bootstrap from the state record, tail deltas (including a no-op
// commit, which must still advance the follower's version), converge
// bit-identically, and report zero lag.
func TestReplicaBootstrapAndTail(t *testing.T) {
	v := buildPrimaryViews(t)
	defer v.Shutdown()
	srv := startServer(t, v, server.Options{ReplHeartbeat: 20 * time.Millisecond})

	rep, err := Start(srv.URL(), Options{Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	if got, want := rep.Applied(), v.Snapshot().Version(); got != want {
		t.Fatalf("bootstrapped at version %d, want %d", got, want)
	}

	if _, err := v.Apply(ivm.NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	// A no-op commit: an empty update still publishes a version; the
	// follower must track it or fall behind by one forever.
	if _, err := v.Apply(ivm.NewUpdate()); err != nil {
		t.Fatal(err)
	}
	cs, err := v.Apply(ivm.NewUpdate().Insert("link", "d", "e").Delete("link", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}

	waitApplied(t, rep, cs.Version(), 10*time.Second)
	assertConverged(t, v.Snapshot(), rep)

	// Lag gauges: applied == leader, zero versions behind.
	snap := rep.Registry().Snapshot()
	if got := snap.Gauge("replica_applied_version"); got != int64(cs.Version()) {
		t.Fatalf("replica_applied_version = %d, want %d", got, cs.Version())
	}
	if got := snap.Gauge("replica_lag_versions"); got != 0 {
		t.Fatalf("replica_lag_versions = %d, want 0", got)
	}
	if got := snap.Counter("replica_divergence_total"); got != 0 {
		t.Fatalf("replica_divergence_total = %d, want 0", got)
	}
}

// A follower cut off while the primary's program changed resumes into
// history entries shed for their bytes (the primary keeps four commits
// and 2 KiB of them; the edit and the large applies weigh more). A
// memory-only primary resets it across the edit — the state record
// carries the program, and the reset folds it with the difference; a
// store-bound one bridges the shed entries from its WAL, edit record
// included. Either way: no restart, no divergence, and it keeps tailing
// under the edited program from a second server over the same views.
func TestReplicaResetCrossesARuleEdit(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "store"}[durable], func(t *testing.T) {
			build := func() (*ivm.Views, error) {
				db := ivm.NewDatabase()
				db.MustLoad(`link(a,b). link(b,c).`)
				return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, ivm.WithHistory(4))
			}
			v, err := build()
			if durable {
				v, _, err = ivm.OpenStore(t.TempDir(), build)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer v.Shutdown()
			crossEditOnResume(t, v, map[bool]int64{false: 1, true: 0}[durable])
		})
	}
}

func crossEditOnResume(t *testing.T, v *ivm.Views, wantResets int64) {
	first := server.New(v, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(faultnet.Options{Target: first.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	patient := client.RetryPolicy{MaxAttempts: 1000, BaseDelay: 3 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	rep, err := Start(proxy.URL(), Options{Retry: patient, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	cs, err := v.Apply(ivm.NewUpdate().Insert("link", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, rep, cs.Version(), 10*time.Second)

	// The primary's server goes away; while the follower is cut off the
	// program gains a rule and more commits land, large enough that the
	// history sheds all but the newest.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddRule(`reach(X,Y) :- link(X,Y).`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		u := ivm.NewUpdate().Delete("link", "a", "b")
		if i == 1 {
			u = ivm.NewUpdate()
		}
		for j := 0; j < 40; j++ {
			u.Insert("link", fmt.Sprintf("x%d_%d", i, j), fmt.Sprintf("y%d_%d", i, j))
		}
		if _, err := v.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if lo, hi, _ := v.History().Bounds(); lo > cs.Version() || hi != cs.Version()+3 {
		t.Fatalf("the history holds (%d, %d], want the follower's %d inside it", lo, hi, cs.Version())
	}
	if ev, _ := v.History().At(cs.Version() + 1); ev.Trace != nil {
		t.Fatal("the edit's entry is whole: the follower would not meet a shed one")
	}
	second := startServer(t, v, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	proxy.SetTarget(second.Addr())
	final := v.Snapshot()
	waitApplied(t, rep, final.Version(), 10*time.Second)
	assertConverged(t, final, rep)
	if got := rep.Views().ProgramSource(); got != v.ProgramSource() {
		t.Fatalf("follower's program %q, want the primary's %q", got, v.ProgramSource())
	}
	reg := rep.Registry().Snapshot()
	if resets, div := reg.Counter("replica_resets_total"), reg.Counter("replica_divergence_total"); resets != wantResets || div != 0 {
		t.Fatalf("replica_resets_total = %d, replica_divergence_total = %d; want %d and 0", resets, div, wantResets)
	}
	// And it keeps tailing under the edited program.
	if cs, err = v.Apply(ivm.NewUpdate().Insert("link", "e", "f")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, rep, cs.Version(), 10*time.Second)
	assertConverged(t, v.Snapshot(), rep)
}

// A follower hands on what it received: the record it folded goes to its
// own history — hence to a follower tailing it — as the bytes the
// primary cut, not re-encoded, and the second-hop follower converges on
// them.
func TestFollowerReshipsTheBytesItReceived(t *testing.T) {
	v := buildPrimaryViews(t)
	defer v.Shutdown()
	srv := startServer(t, v, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	first, err := Start(srv.URL(), Options{Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Stop()
	hop := startServer(t, first.Views(), server.Options{LeaderURL: srv.URL(), ReplHeartbeat: 20 * time.Millisecond})
	second, err := Start(hop.URL(), Options{Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Stop()

	var last uint64
	for i := 0; i < 20; i++ {
		cs, err := v.ApplyScript(fmt.Sprintf("+link(c,d%d). +link(d%d,e).", i, i))
		if err != nil {
			t.Fatal(err)
		}
		last = cs.Version()
	}
	waitApplied(t, second, last, 10*time.Second)
	assertConverged(t, v.Snapshot(), first)
	assertConverged(t, v.Snapshot(), second)
	for version := last - 19; version <= last; version++ {
		cut, _ := v.History().At(version)
		reshipped, ok := first.Views().History().At(version)
		if !ok || len(reshipped.Payload) == 0 || !bytes.Equal(reshipped.Payload, cut.Payload) {
			t.Fatalf("version %d: the follower hands on %x, the primary cut %x", version, reshipped.Payload, cut.Payload)
		}
	}
}

// convergenceTrial runs one randomized workload against a primary with
// two followers behind fault-injecting proxies and requires both to
// converge bit-identically to the primary's final snapshot.
func convergenceTrial(t *testing.T, seed int64, fraction float64) {
	v := buildPrimaryViews(t, ivm.WithHistory(8))
	defer v.Shutdown()
	// A small history forces stragglers through the state fallback
	// (memory-only primary: no WAL to bridge from), so the trials
	// exercise resets as well as plain tailing.
	srv := startServer(t, v, server.Options{ReplHeartbeat: 20 * time.Millisecond})

	rng := rand.New(rand.NewSource(seed))
	var reps []*Replica
	var proxies []*faultnet.Proxy
	for i := 0; i < 2; i++ {
		proxy, err := faultnet.New(faultnet.Options{
			Target:   srv.Addr(),
			Fraction: fraction,
			Seed:     seed*100 + int64(i),
			Delay:    5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		proxies = append(proxies, proxy)
		rep, err := Start(proxy.URL(), Options{Retry: fastRetry, StallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Stop()
		reps = append(reps, rep)
	}

	// Random workload: inserts and deletes over a small key space, with
	// deletes drawn from the live set (set semantics absorb duplicate
	// inserts, and the engine rejects deleting an absent tuple) so both
	// signs of maintenance are exercised.
	type pair struct{ src, dst string }
	live := []pair{{"a", "b"}, {"b", "c"}}
	member := map[pair]bool{{"a", "b"}: true, {"b", "c"}: true}
	applies := 10 + rng.Intn(15)
	var last uint64
	for i := 0; i < applies; i++ {
		u := ivm.NewUpdate()
		touched := false
		for j := 0; j < 1+rng.Intn(3); j++ {
			if rng.Float64() < 0.3 && len(live) > 0 {
				k := rng.Intn(len(live))
				p := live[k]
				u.Delete("link", p.src, p.dst)
				live = append(live[:k], live[k+1:]...)
				delete(member, p)
				touched = true
			} else {
				p := pair{fmt.Sprintf("n%d", rng.Intn(8)), fmt.Sprintf("n%d", rng.Intn(8))}
				if member[p] {
					continue
				}
				u.Insert("link", p.src, p.dst)
				live = append(live, p)
				member[p] = true
				touched = true
			}
		}
		_ = touched // an all-skipped round applies an empty update: also legal
		cs, err := v.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		last = cs.Version()
		if rng.Float64() < 0.2 {
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	}

	// Drain the faults so catch-up always completes, then require
	// convergence.
	for _, proxy := range proxies {
		proxy.SetFraction(0)
	}
	final := v.Snapshot()
	for i, rep := range reps {
		waitApplied(t, rep, last, 30*time.Second)
		assertConverged(t, final, rep)
		if err := rep.Err(); err != nil {
			t.Fatalf("follower %d: terminal error %v", i, err)
		}
	}
}

// TestReplicaConvergence is the property battery: 102 randomized
// trials across fault fractions 0, 0.10, and 0.25. Every trial must
// end with both followers bit-identical to the primary.
func TestReplicaConvergence(t *testing.T) {
	trials := 102
	if testing.Short() {
		trials = 12
	}
	fractions := []float64{0, 0.10, 0.25}
	for i := 0; i < trials; i++ {
		i := i
		fraction := fractions[i%len(fractions)]
		t.Run(fmt.Sprintf("trial%03d_fault%02.0f", i, fraction*100), func(t *testing.T) {
			t.Parallel()
			convergenceTrial(t, int64(i+1), fraction)
		})
	}
}

// TestReplicaChaosKillRestart: a store-bound primary is killed
// mid-stream (graceful process death: drain, checkpoint, close) and
// restarted on a new port while two followers tail through a 25%-fault
// proxy. The followers must recover without gaps and converge on the
// restarted primary's final state.
func TestReplicaChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short")
	}
	dir := t.TempDir()
	build := func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, ivm.WithHistory(16))
	}
	v, _, err := ivm.OpenStore(dir, build, ivm.WithHistory(16))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(v, server.Options{OwnViews: true, ReplHeartbeat: 20 * time.Millisecond})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	proxy, err := faultnet.New(faultnet.Options{
		Target:   srv.Addr(),
		Fraction: 0.25,
		Seed:     42,
		Delay:    5 * time.Millisecond,
		LogPath:  t.TempDir() + "/replica-chaos-faults.log",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	chaosRetry := client.RetryPolicy{MaxAttempts: 40, BaseDelay: 5 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	var reps []*Replica
	for i := 0; i < 2; i++ {
		rep, err := Start(proxy.URL(), Options{Retry: chaosRetry, StallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Stop()
		reps = append(reps, rep)
	}

	apply := func(v *ivm.Views, round, i int) uint64 {
		t.Helper()
		cs, err := v.Apply(ivm.NewUpdate().
			Insert("link", fmt.Sprintf("p%d_%d", round, i), fmt.Sprintf("q%d_%d", round, i)).
			Insert("link", fmt.Sprintf("q%d_%d", round, i), fmt.Sprintf("r%d_%d", round, i)))
		if err != nil {
			t.Fatal(err)
		}
		return cs.Version()
	}

	// Phase A: load while the followers tail under faults.
	for i := 0; i < 25; i++ {
		apply(v, 0, i)
	}

	// Kill the primary: graceful shutdown checkpoints and closes the
	// store; every acked apply is durable. Followers' streams drop.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()

	// Restart from the checkpoint + WAL on a fresh port and repoint the
	// proxy — the followers' reconnect loops find it there.
	v2, _, err := ivm.OpenStore(dir, build, ivm.WithHistory(16))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(v2, server.Options{OwnViews: true, ReplHeartbeat: 20 * time.Millisecond})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	}()
	proxy.SetTarget(srv2.Addr())

	// Phase B: more load on the restarted primary.
	var last uint64
	for i := 0; i < 25; i++ {
		last = apply(v2, 1, i)
	}

	proxy.SetFraction(0)
	final := v2.Snapshot()
	for i, rep := range reps {
		waitApplied(t, rep, last, 60*time.Second)
		assertConverged(t, final, rep)
		snap := rep.Registry().Snapshot()
		if got := snap.Counter("replica_divergence_total"); got != 0 {
			t.Fatalf("follower %d: replica_divergence_total = %d, want 0 — the primary restart must not open a gap", i, got)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("follower %d: terminal error %v", i, err)
		}
	}
	st := proxy.Stats()
	t.Logf("chaos: %d connections, %d faulted (%v)", st.Conns, st.Faulted, st.ByMode)
	if st.Faulted == 0 {
		t.Fatal("fault proxy never injected a fault; the chaos run proved nothing")
	}
}
