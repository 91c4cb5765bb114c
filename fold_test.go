package ivm_test

// TestFoldEqualsRederive: a commit record carries the deltas its engine
// committed, and Theorem 4.1 makes those exactly the changed derivations
// with their counts — so folding them (x ⊎ Δ₁ ⊎ … ⊎ Δₙ, no rule evaluated)
// must land where re-deriving the commit from its script lands, and where
// recomputing the views from scratch lands, at every version, for every
// strategy and semantics, through negation, aggregation, recursion and a
// SQL view with a hidden helper predicate. The folded node must also
// report the change set the primary reported, and must be a complete
// primary afterwards (group tables are the one piece of engine state a
// fold cannot carry; the first local apply rebuilds them).

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ivm"
	"ivm/internal/storage"
)

const foldNonrecursive = `
	hop(X,Y)     :- link(X,Z), link(Z,Y).
	tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
	only(X,Y)    :- tri_hop(X,Y), !hop(X,Y).
	deg(X,C)     :- groupby(hop(X,Y), [X], C = count(Y)).
	far(X,M)     :- groupby(tri_hop(X,Y), [X], M = max(Y)).
`

const foldRecursive = `
	tc(X,Y)    :- link(X,Y).
	tc(X,Y)    :- tc(X,Z), link(Z,Y).
	sink(X,Y)  :- tc(X,Y), !link(X,Y).
	reach(X,C) :- groupby(tc(X,Y), [X], C = count(Y)).
`

const foldSQL = `
	CREATE TABLE link(s, d);
	INSERT INTO link VALUES ('n0','n1'), ('n1','n2'), ('n2','n3'), ('n1','n3');
	CREATE VIEW hop(s, d) AS
	  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
	CREATE VIEW deg(s, n) AS SELECT s, COUNT(*) AS n FROM hop GROUP BY s;
`

const foldFacts = `link(n0,n1). link(n1,n2). link(n2,n3). link(n1,n3).`

func TestFoldEqualsRederive(t *testing.T) {
	datalog := func(program string) func(...ivm.Option) (*ivm.Views, error) {
		return func(opts ...ivm.Option) (*ivm.Views, error) {
			db := ivm.NewDatabase()
			db.MustLoad(foldFacts)
			return db.Materialize(program, opts...)
		}
	}
	sql := func(opts ...ivm.Option) (*ivm.Views, error) {
		return ivm.NewDatabase().MaterializeSQL(foldSQL, opts...)
	}
	set, dup := ivm.WithSemantics(ivm.SetSemantics), ivm.WithSemantics(ivm.DuplicateSemantics)
	for i, c := range []struct {
		name     string
		build    func(...ivm.Option) (*ivm.Views, error)
		strategy ivm.Strategy
		sem      ivm.Option
		dup      bool
	}{
		{"counting/set", datalog(foldNonrecursive), ivm.Counting, set, false},
		{"counting/duplicate", datalog(foldNonrecursive), ivm.Counting, dup, true},
		{"recompute/set", datalog(foldNonrecursive), ivm.Recompute, set, false},
		{"recompute/duplicate", datalog(foldNonrecursive), ivm.Recompute, dup, true},
		{"dred/set", datalog(foldNonrecursive), ivm.DRed, set, false},
		{"dred/set/recursive", datalog(foldRecursive), ivm.DRed, set, false},
		{"pf/set/recursive", datalog(foldRecursive), ivm.PF, set, false},
		{"recompute/set/recursive", datalog(foldRecursive), ivm.Recompute, set, false},
		{"counting/set/sql-hidden", sql, ivm.Counting, set, false},
		{"counting/duplicate/sql-hidden", sql, ivm.Counting, dup, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			primary, err := c.build(ivm.WithStrategy(c.strategy), c.sem)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := c.build(ivm.WithStrategy(ivm.Recompute), c.sem)
			if err != nil {
				t.Fatal(err)
			}
			var events []ivm.CommitEvent
			primary.OnCommitRecord(func(ev ivm.CommitEvent) { events = append(events, ev) })
			snap := primary.Snapshot()
			state := snap.ReplicaState()
			follower := func() *ivm.Views {
				v, err := ivm.ViewsFromReplicaState(state)
				if err != nil {
					t.Fatal(err)
				}
				v.SeedVersion(snap.Version())
				return v
			}
			folded, scripted := follower(), follower()
			preds := append(snap.Preds(), state.Hidden...)
			if c.name == "counting/set/sql-hidden" && len(state.Hidden) == 0 {
				t.Fatal("the SQL case has no hidden predicate to test")
			}
			probes := folded.Metrics().Counter("eval_join_probes_total")

			// DRed (and PF over it) stores every view tuple once; the
			// recompute oracle stores derivation counts. Everything else
			// agrees on counts.
			oracleCounts := c.strategy != ivm.DRed && c.strategy != ivm.PF
			gen := newFoldStream(int64(16+i), c.dup)
			step := func(phase string, n int, nodes ...*ivm.Views) *ivm.ChangeSet {
				t.Helper()
				u := gen.next()
				var first *ivm.ChangeSet
				for j, v := range nodes {
					cs, err := v.Apply(u)
					if err != nil {
						t.Fatalf("%s %d: apply %q on node %d: %v", phase, n, u, j, err)
					}
					if j == 0 {
						first = cs
					}
				}
				if _, err := oracle.Apply(u); err != nil {
					t.Fatalf("%s %d: oracle: %v", phase, n, err)
				}
				return first
			}
			for n := 0; n < 120; n++ {
				want := step("stream", n, primary)
				ev := events[len(events)-1]
				if ev.Version != want.Version() || !ev.HasDeltas() {
					t.Fatalf("stream %d: record %+v for version %d", n, ev.CommitRecord, want.Version())
				}
				got, err := folded.ApplyCommitRecord(ev.CommitRecord)
				if err != nil {
					t.Fatalf("stream %d: fold: %v", n, err)
				}
				rederived, err := scripted.ApplyScriptReplicated(gen.last.String(), nil)
				if err != nil {
					t.Fatalf("stream %d: re-derive: %v", n, err)
				}
				requireSameChanges(t, fmt.Sprintf("stream %d: folded vs primary", n), want, got)
				requireSameChanges(t, fmt.Sprintf("stream %d: re-derived vs primary", n), want, rederived)
				requireSameRows(t, fmt.Sprintf("stream %d: folded vs primary", n), preds, primary, folded, true)
				requireSameRows(t, fmt.Sprintf("stream %d: folded vs re-derived", n), preds, scripted, folded, true)
				requireSameRows(t, fmt.Sprintf("stream %d: folded vs recompute", n), snap.Preds(), oracle, folded, oracleCounts)
			}
			m := folded.Metrics()
			if got := m.Counter("eval_join_probes_total"); got != probes {
				t.Fatalf("folding probed indexes: eval_join_probes_total %d -> %d", probes, got)
			}
			if h := m.Histograms["commit_replay_seconds"]; h.Count != 120 || m.Counter("commit_replay_rows_total") == 0 {
				t.Fatalf("replay metrics: %d observations, %d rows", h.Count, m.Counter("commit_replay_rows_total"))
			}

			// Promotion: the folded node takes the writes from here on.
			for n := 0; n < 50; n++ {
				want := step("promoted", n, primary, folded)
				if got := folded.Snapshot().Version(); got != want.Version() {
					t.Fatalf("promoted %d: folded node at version %d, primary at %d", n, got, want.Version())
				}
				requireSameRows(t, fmt.Sprintf("promoted %d: folded vs primary", n), preds, primary, folded, true)
				requireSameRows(t, fmt.Sprintf("promoted %d: folded vs recompute", n), snap.Preds(), oracle, folded, oracleCounts)
			}
		})
	}
}

// foldStream draws updates of one to four link changes over six nodes
// from a model of the stored multiset: deletions of stored tuples,
// insertions of new ones and — where the semantics make that a no-op or
// a multiplicity bump — of stored ones too.
type foldStream struct {
	rng   *rand.Rand
	dup   bool
	count map[[2]string]int
	last  *ivm.Update
}

func newFoldStream(seed int64, dup bool) *foldStream {
	g := &foldStream{rng: rand.New(rand.NewSource(seed)), dup: dup, count: make(map[[2]string]int)}
	for _, e := range [][2]string{{"n0", "n1"}, {"n1", "n2"}, {"n2", "n3"}, {"n1", "n3"}} {
		g.count[e] = 1
	}
	return g
}

func (g *foldStream) next() *ivm.Update {
	u := ivm.NewUpdate()
	used := make(map[[2]string]bool)
	for k := 1 + g.rng.Intn(4); k > 0; k-- {
		e := [2]string{fmt.Sprintf("n%d", g.rng.Intn(6)), fmt.Sprintf("n%d", g.rng.Intn(6))}
		if used[e] {
			continue
		}
		used[e] = true
		if g.count[e] > 0 && g.rng.Intn(5) < 3 {
			u.Delete("link", e[0], e[1])
			g.count[e]--
		} else {
			u.Insert("link", e[0], e[1])
			if g.dup || g.count[e] == 0 {
				g.count[e]++
			}
		}
	}
	g.last = u
	return u
}

// requireSameRows compares the listed predicates of two views: tuples
// always, derivation counts when counts is set.
func requireSameRows(t *testing.T, what string, preds []string, want, got *ivm.Views, counts bool) {
	t.Helper()
	for _, pred := range preds {
		a, b := want.Rows(pred), got.Rows(pred)
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i].Tuple.Equal(b[i].Tuple) && (!counts || a[i].Count == b[i].Count)
		}
		if !same {
			t.Fatalf("%s: %s differs:\n got %v\nwant %v", what, pred, b, a)
		}
	}
}

// requireSameChanges compares two change sets the way a subscriber sees
// them: version, and per predicate the inserted and deleted rows.
func requireSameChanges(t *testing.T, what string, want, got *ivm.ChangeSet) {
	t.Helper()
	render := func(cs *ivm.ChangeSet) string {
		s := fmt.Sprintf("v%d", cs.Version())
		cs.Each(func(pred string, ins, del []ivm.Row) { s += fmt.Sprintf(" %s +%v -%v", pred, ins, del) })
		return s
	}
	if w, g := render(want), render(got); w != g {
		t.Fatalf("%s: change sets differ:\n got %s\nwant %s", what, g, w)
	}
}

// A record that does not fit — cut against another state or under other
// semantics, damaged behind its checksum, or stamped for another version
// — is refused with nothing applied, and the node goes on folding the
// records that do fit.
func TestFoldRefusesWithNothingApplied(t *testing.T) {
	build := func(facts string, opts ...ivm.Option) (*ivm.Views, *[]ivm.CommitRecord) {
		db := ivm.NewDatabase()
		db.MustLoad(facts)
		v, err := db.Materialize(foldNonrecursive, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var recs []ivm.CommitRecord
		v.OnCommitRecord(func(ev ivm.CommitEvent) { recs = append(recs, ev.CommitRecord) })
		return v, &recs
	}
	primary, recs := build(foldFacts)
	stranger, strange := build(foldFacts + ` link(n3,n4).`)
	multiset, counted := build(foldFacts, ivm.WithSemantics(ivm.DuplicateSemantics))
	node, _ := build(foldFacts)
	for _, v := range []*ivm.Views{primary, multiset} {
		if _, err := v.ApplyScript(`+link(n3,n5). -link(n0,n1).`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stranger.ApplyScript(`-link(n3,n4).`); err != nil {
		t.Fatal(err)
	}
	good := (*recs)[0]
	cut, err := storage.DecodeCommitRecord(good.Payload[:len(good.Payload)-3])
	if err != nil {
		t.Fatal(err)
	}
	late := good
	late.Version++

	before := node.Snapshot()
	for name, rec := range map[string]ivm.CommitRecord{"another state's": (*strange)[0], "another semantics'": (*counted)[0], "truncated": cut, "later": late} {
		_, err := node.ApplyCommitRecord(rec)
		var div *ivm.DivergenceError
		switch diverged := errors.As(err, &div); {
		case err == nil:
			t.Fatalf("%s record was applied", name)
		case name == "truncated" && diverged, name != "truncated" && !diverged:
			t.Fatalf("%s record: %v", name, err)
		case name == "another semantics'":
			if div.Engine == "" || div.Engine == div.Have {
				t.Fatalf("divergence does not name the two configurations: %+v", div)
			}
		case name == "another state's":
			// Whichever of its rows is read first (sections go in name
			// order), it is a deletion of one this node does not store.
			vals := make([]any, len(div.Tuple))
			for i, val := range div.Tuple {
				vals[i] = val
			}
			if div.Pred == "" || div.Tuple == nil || node.Count(div.Pred, vals...) != 0 || div.Version != 2 {
				t.Fatalf("divergence does not name a row that does not fit: %+v", div)
			}
		}
		if after := node.Snapshot(); after.Version() != before.Version() {
			t.Fatalf("%s record moved the version to %d", name, after.Version())
		}
		requireSameRows(t, name+" record", before.Preds(), primaryAt(t, foldFacts), node, true)
	}
	if _, err := node.ApplyCommitRecord(good); err != nil {
		t.Fatalf("the fitting record after the refusals: %v", err)
	}
	requireSameRows(t, "after the fitting record", before.Preds(), primary, node, true)
}

// primaryAt materializes the nonrecursive fold program over facts.
func primaryAt(t *testing.T, facts string) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(facts)
	v, err := db.Materialize(foldNonrecursive)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
