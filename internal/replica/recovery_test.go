package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ivm"
	"ivm/internal/server"
	"ivm/internal/storage"
)

// recoveryLeg is one configuration TestRecoveryEqualsFollower streams.
type recoveryLeg struct {
	program, facts string
	opts           []ivm.Option
	// edits interleaves rule edits with the applies: every third round
	// adds the next of extras or removes the last one added.
	edits  bool
	extras []string
	// counts compares derivation counts with the recomputation too
	// (DRed stores every view tuple once; recompute stores its counts).
	counts bool
}

// TestRecoveryEqualsFollower: crash recovery and a follower's tail are
// the same fold over the same commit records, so after one seeded stream
// of keyed, unkeyed and coalesced applies — and, on the DRed leg, rule
// edits among them — a killed-and-reopened primary, a follower that tailed
// it, and a from-scratch recomputation of the final program over the acked
// scripts must agree on rows, counts, the published version, the program
// and the dedup answer for every key; and both replay sites must stop with
// the same typed error on a record stamped for a different version.
//
// The DRed leg crosses more than ten AddRule/RemoveRule edits, one of which
// takes away the only rule of a predicate that holds rows. Each edit must
// reach the follower as a record of its program and Δ — never as an 'S'
// state, which a follower refuses when the program changed — so
// replica_resets_total and replica_divergence_total stay 0. Two edits the
// engine rejects (TestRejectedAddRuleLeavesProgramIntact's cases: a
// non-numeric operand in AddRule's seed, and in RemoveRule's insertions
// under a negation) sit in the middle of the stream: each cuts no record,
// publishes no version, and the next apply is exact.
func TestRecoveryEqualsFollower(t *testing.T) {
	var pad strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&pad, "pad(%d). ", i)
	}
	for name, leg := range map[string]recoveryLeg{
		"counting": {
			program: `hop(X,Y) :- link(X,Z), link(Z,Y).`,
			facts:   `link(a,b). link(b,c).`,
			counts:  true,
		},
		"dred": {
			program: "tc(X,Y) :- link(X,Y).\ntc(X,Y) :- tc(X,Z), link(Z,Y).\n" +
				"p(X) :- q(X).\nr(X, Y + 1) :- w(X, Y), !p(X).\n",
			facts: `link(a,b). link(b,c). hyper(c,a). q(a). w(a,x). w(b,2). ` + pad.String(),
			opts:  []ivm.Option{ivm.WithStrategy(ivm.DRed)},
			edits: true,
			extras: []string{
				`tc(X,Y) :- hyper(X,Y).`,
				`hub(X) :- tc(X,Y), tc(Y,X).`,
				`tc(X,Y) :- link(Y,X), q(Y).`,
			},
		},
	} {
		t.Run(name, func(t *testing.T) { recoveryEqualsFollower(t, leg) })
	}
}

func recoveryEqualsFollower(t *testing.T, leg recoveryLeg) {
	build := func(program string, opts ...ivm.Option) (*ivm.Views, error) {
		db := ivm.NewDatabase()
		db.MustLoad(leg.facts)
		return db.Materialize(program, opts...)
	}
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) { return build(leg.program, leg.opts...) }, append(leg.opts, ivm.WithGroupCommit())...)
	if err != nil {
		t.Fatal(err)
	}
	// What each commit shipped, and the change set each side reported.
	var (
		mu                 sync.Mutex
		events             = make(map[uint64]ivm.CommitEvent)
		reported, refolded = make(map[uint64]string), make(map[uint64]string)
	)
	v.OnCommitRecord(func(ev ivm.CommitEvent) { mu.Lock(); events[ev.Version] = ev; mu.Unlock() })
	v.OnCommit(func(cs *ivm.ChangeSet) { mu.Lock(); reported[cs.Version()] = renderChanges(cs); mu.Unlock() })
	srv := server.New(v, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	rep, err := Start(srv.URL(), Options{Retry: fastRetry, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	rep.Views().OnCommit(func(cs *ivm.ChangeSet) { mu.Lock(); refolded[cs.Version()] = renderChanges(cs); mu.Unlock() })

	// The stream. Sequential rounds insert and delete; a burst round
	// fires concurrent insert-only applies of fresh tuples, which the
	// scheduler coalesces into shared records (and which commute, so the
	// oracle may replay them in any order within a version).
	type ack struct {
		version uint64
		script  string
		key     string // "" for an unkeyed apply
	}
	var acked []ack
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
	// Edits add the extras one by one, then take them away last first —
	// the one that defines hub while hub holds rows among them — and so on.
	var editVersions []uint64
	added := []int{} // rule indexes of the extras added, in order
	growing := true
	edit := func() {
		var cs *ivm.ChangeSet
		var err error
		if growing = len(added) == 0 || growing && len(added) < len(leg.extras); growing {
			added = append(added, len(v.Program().Rules))
			cs, err = v.AddRule(leg.extras[len(added)-1])
		} else {
			cs, err = v.RemoveRule(added[len(added)-1])
			added = added[:len(added)-1]
		}
		if err != nil {
			t.Fatal(err)
		}
		editVersions = append(editVersions, cs.Version())
	}
	// rejected runs an edit the engine refuses while maintaining it; the
	// stream's next apply is checked against a recomputation.
	rejected := func(name string, run func() (*ivm.ChangeSet, error)) {
		before, src := v.Snapshot().Version(), v.ProgramSource()
		if _, err := run(); err == nil || !strings.Contains(err.Error(), "non-numeric") {
			t.Fatalf("%s: err = %v, want a non-numeric operand", name, err)
		}
		mu.Lock()
		_, cut := events[before+1]
		mu.Unlock()
		if v.Snapshot().Version() != before || cut || v.ProgramSource() != src {
			t.Fatalf("%s: a rejected edit published version %d (was %d) or cut a record (%v)", name, v.Snapshot().Version(), before, cut)
		}
	}
	rng := rand.New(rand.NewSource(15))
	live := [][2]string{{"a", "b"}, {"b", "c"}}
	fresh, checkNext := 0, false
	for round := 0; round < 40; round++ {
		if leg.edits {
			switch {
			case round == 14:
				rejected("add-rule/seed", func() (*ivm.ChangeSet, error) { return v.AddRule("tc(X, Y + 1) :- w(X, Y).") })
				checkNext = true
			case round == 26:
				rejected("remove-rule/propagate", func() (*ivm.ChangeSet, error) { return v.RemoveRule(2) })
				checkNext = true
			case round%3 == 2:
				edit()
				continue
			}
		}
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
		} else {
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
		if checkNext {
			requireRecomputed(t, "the apply after a rejected edit", v, v, leg.counts)
			checkNext = false
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if leg.edits && len(editVersions) < 10 {
		t.Fatalf("the stream made %d rule edits, want at least 10", len(editVersions))
	}
	last := v.Snapshot().Version()
	waitApplied(t, rep, last, 30*time.Second)
	mu.Lock()
	// The follower reported every commit as the primary did: a fold reads
	// a rule edit's change set under the program the edit left.
	for ver, want := range reported {
		if got := refolded[ver]; got != want {
			t.Fatalf("version %d: the follower reported\n%s\nthe primary\n%s", ver, got, want)
		}
	}
	// An edit ships a header, its program and its Δ, never the database:
	// a Δ row costs a count and a short key here, and the 300 pad rows no
	// edit touches are in none.
	for _, ver := range editVersions {
		ev := events[ver]
		src, ok := ev.Program()
		if !ok {
			t.Fatalf("edit at version %d shipped no program: %x", ver, ev.Payload)
		}
		rows, size := deltaSize(t, ev.CommitRecord)
		if len(ev.Payload) > 16+len(src)+size || size > 32*rows || strings.Contains(string(ev.Payload), "pad") {
			t.Fatalf("edit at version %d: a %d-byte payload for a %d-byte program and %d Δ rows", ver, len(ev.Payload), len(src), rows)
		}
	}
	mu.Unlock()

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
	recovered, info, err := ivm.OpenStore(dir, nil, append(leg.opts, ivm.WithGroupCommit())...)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Replayed == 0 || info.Replayed > len(acked)+len(editVersions) {
		t.Fatalf("recovery replayed %d records in epoch %d for %d acked applies and %d edits", info.Replayed, info.Epoch, len(acked), len(editVersions))
	}
	t.Logf("%d acked applies and %d rule edits in %d commit records", len(acked), len(editVersions), info.Replayed)

	// The oracle: the final program recomputed over the acked scripts.
	oracle, err := build(v.ProgramSource(), ivm.WithStrategy(ivm.Recompute))
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
		if got.Snapshot().Version() != last || got.ProgramSource() != v.ProgramSource() {
			t.Errorf("%s is at version %d under\n%s\nwant %d under\n%s", name, got.Snapshot().Version(), got.ProgramSource(), last, v.ProgramSource())
		}
		requireRecomputed(t, name, got, oracle, leg.counts)
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
	requireRecomputed(t, "follower vs recovered primary", follower, recovered, true)
	snap := rep.Registry().Snapshot()
	if resets, div := snap.Counter("replica_resets_total"), snap.Counter("replica_divergence_total"); resets != 0 || div != 0 {
		t.Fatalf("replica_resets_total = %d, replica_divergence_total = %d; want 0 and 0", resets, div)
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
	_, _, err = ivm.OpenStore(dir, nil, leg.opts...)
	if !errors.As(err, &behind) || behind.Version != last-1 || behind.At != last {
		t.Fatalf("recovery, record two behind: %v, want a DivergenceError{%d at %d}", err, last-1, last)
	}
}

// requireRecomputed requires got to hold want's rows for every predicate
// either stores: tuples always, counts for base predicates and, when
// counts is set, for derived ones too. want may be got itself: then it is
// compared with a recomputation of its program over its base relations.
func requireRecomputed(t *testing.T, what string, got, want *ivm.Views, counts bool) {
	t.Helper()
	if got == want {
		db := ivm.NewDatabase()
		derived := got.Program().DerivedPreds()
		for _, pred := range got.Snapshot().Preds() {
			for _, row := range got.Rows(pred) {
				if !derived[pred] {
					db.InsertTuple(pred, row.Tuple, row.Count)
				}
			}
		}
		var err error
		if want, err = db.Materialize(got.ProgramSource(), ivm.WithStrategy(ivm.Recompute)); err != nil {
			t.Fatal(err)
		}
	}
	derived := want.Program().DerivedPreds()
	for _, pred := range append(got.Snapshot().Preds(), want.Snapshot().Preds()...) {
		g, w := got.Rows(pred), want.Rows(pred)
		same := len(g) == len(w)
		for i := 0; same && i < len(w); i++ {
			same = g[i].Tuple.Equal(w[i].Tuple) && (g[i].Count == w[i].Count || derived[pred] && !counts)
		}
		if !same {
			t.Fatalf("%s: %s is\n%v\nrecomputation\n%v", what, pred, g, w)
		}
	}
}

// renderChanges is a change set as a subscriber sees it: per predicate,
// the inserted and deleted rows.
func renderChanges(cs *ivm.ChangeSet) string {
	var sb strings.Builder
	cs.Each(func(pred string, ins, del []ivm.Row) { fmt.Fprintf(&sb, "%s +%v -%v\n", pred, ins, del) })
	return sb.String()
}

// deltaSize walks a record's Δ: its rows and the bytes they take.
func deltaSize(t *testing.T, rec ivm.CommitRecord) (rows, size int) {
	t.Helper()
	for rd := rec.Deltas(); ; {
		pred, _, n, err := rd.Next()
		if err == io.EOF {
			return rows, size
		}
		if err != nil {
			t.Fatal(err)
		}
		size += 8 + len(pred)
		for i := 0; i < n; i++ {
			_, key, err := rd.Row()
			if err != nil {
				t.Fatal(err)
			}
			rows, size = rows+1, size+1+len(key)
		}
	}
}
