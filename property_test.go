package ivm_test

// Property-based tests (experiment E11): for randomized base relations
// and update sequences, every maintenance strategy must agree with full
// recomputation, stored counts must equal true derivation counts and
// never go negative (Lemma 4.1 / Theorem 4.1), and DRed must satisfy
// Theorem 7.1 (the maintained view equals the view of the new database).

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ivm"
)

// program families exercised by the random tests.
var propertyPrograms = []struct {
	name      string
	src       string
	recursive bool
	weighted  bool
	// extraRule is added to, then removed from, the DRed views at the end
	// of each run: one more way to derive the lowest view.
	extraRule string
}{
	{"join", `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
	`, false, false, `hop(X,Y) :- link(Y,X).`},
	{"negation", `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
		only(X,Y)    :- tri_hop(X,Y), !hop(X,Y).
	`, false, false, `hop(X,Y) :- link(Y,X).`},
	{"aggregation", `
		cost(S,D,C1+C2) :- link(S,I,C1), link(I,D,C2).
		mch(S,D,M)      :- groupby(cost(S,D,C), [S,D], M = min(C)).
		spend(S,N)      :- groupby(cost(S,D,C), [S], N = sum(C)).
	`, false, true, `cost(S,D,C) :- link(D,S,C).`},
	{"recursion", `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`, true, false, `tc(X,Y) :- link(Y,X).`},
	{"recursion-negation", `
		tc(X,Y)      :- link(X,Y).
		tc(X,Y)      :- tc(X,Z), link(Z,Y).
		sink(X,Y)    :- tc(X,Y), !link(X,Y).
	`, true, false, `tc(X,Y) :- link(Y,X).`},
}

// sameRows demands exact tuple AND count equality (not just set
// agreement).
func sameRows(a, b []ivm.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Tuple.Equal(b[i].Tuple) || a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}

// derivedRows reads every derived relation of v.
func derivedRows(v *ivm.Views) map[string][]ivm.Row {
	out := make(map[string][]ivm.Row)
	for pred := range v.Program().DerivedPreds() {
		out[pred] = v.Rows(pred)
	}
	return out
}

// changeSetIsRowDiff reports how cs differs from the signed difference of
// the derived relations around the operation that returned it ("" if it
// does not): per tuple the change of its count under the recompute
// baseline, which reports count moves, and of its presence (±1) under the
// incremental strategies, whose change sets are set transitions.
func changeSetIsRowDiff(cs *ivm.ChangeSet, s ivm.Strategy, before, after map[string][]ivm.Row) string {
	want := make(map[string]int64) // "pred tuple-key" → signed change
	weigh := func(rows map[string][]ivm.Row, sign int64) {
		for pred, rs := range rows {
			for _, r := range rs {
				if s != ivm.Recompute {
					r.Count = 1
				}
				want[pred+" "+r.Tuple.Key()] += sign * r.Count
			}
		}
	}
	weigh(after, 1)
	weigh(before, -1)
	for _, pred := range cs.Preds() {
		for _, r := range cs.Delta(pred) {
			k := pred + " " + r.Tuple.Key()
			if want[k] != r.Count || r.Count == 0 {
				return fmt.Sprintf("Δ(%s) reports %v × %d, the rows moved by %d", pred, r.Tuple, r.Count, want[k])
			}
			delete(want, k)
		}
	}
	for k, c := range want {
		if c != 0 {
			return fmt.Sprintf("%s moved by %d and the change set does not say so", k, c)
		}
	}
	return ""
}

// randomEdges renders n random edges (weighted or not) as fact text.
func randomEdges(rng *rand.Rand, nodes, n int, weighted bool) *ivm.Update {
	u := ivm.NewUpdate()
	for i := 0; i < n; i++ {
		a := rng.Intn(nodes)
		b := rng.Intn(nodes)
		if a == b {
			continue
		}
		if weighted {
			u.Insert("link", nodeName(a), nodeName(b), int64(1+rng.Intn(6)))
		} else {
			u.Insert("link", nodeName(a), nodeName(b))
		}
	}
	return u
}

func nodeName(i int) string { return string(rune('a' + i)) }

func tupleArgs(t ivm.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = v
	}
	return out
}

func TestPropertyStrategiesAgree(t *testing.T) {
	for _, tc := range propertyPrograms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				base := ivm.NewDatabase()
				init := randomEdges(rng, 7, 12, tc.weighted)
				baseFacts := init.String()
				base.MustLoad(baseFacts)

				strategies := []ivm.Strategy{ivm.Recompute}
				if tc.recursive {
					strategies = append(strategies, ivm.PF, ivm.DRed)
				} else {
					strategies = append(strategies, ivm.Counting, ivm.PF, ivm.DRed)
				}
				views := make([]*ivm.Views, len(strategies))
				for i, s := range strategies {
					db := ivm.NewDatabase()
					db.MustLoad(baseFacts)
					v, err := db.Materialize(tc.src, ivm.WithStrategy(s))
					if err != nil {
						t.Fatalf("%v: %v", s, err)
					}
					views[i] = v
				}

				for round := 0; round < 6; round++ {
					// Build one delta against the reference view's state.
					d := buildDelta(rng, views[0], tc.weighted)
					if d.Empty() {
						continue
					}
					for i, v := range views {
						before := derivedRows(v)
						borrowed := watchBorrowing(v)
						cs, err := v.Apply(d)
						if err != nil {
							t.Fatalf("seed %d round %d strategy %v: %v\ndelta:\n%s",
								seed, round, strategies[i], err, d.String())
						}
						// The engines build a tuple only for a row that is
						// new; DRed not once more than that, unless a head
						// with arithmetic takes step 2 down its slow path.
						if s := strategies[i]; s == ivm.Counting || s == ivm.DRed {
							fresh, built := borrowed(t, fmt.Sprintf("seed %d round %d strategy %v", seed, round, s))
							if built < fresh || (s == ivm.DRed && !tc.weighted && built != fresh) {
								t.Fatalf("seed %d round %d strategy %v: %d heads built for %d new rows\ndelta:\n%s",
									seed, round, s, built, fresh, d.String())
							}
						}
						// The one Δ every engine returns is the change of
						// what it stores.
						if diff := changeSetIsRowDiff(cs, strategies[i], before, derivedRows(v)); diff != "" {
							t.Fatalf("seed %d round %d strategy %v: %s\ndelta:\n%s",
								seed, round, strategies[i], diff, d.String())
						}
					}
					// All strategies agree with the recompute reference,
					// as sets, on every derived predicate.
					ref := views[0]
					for pred := range ref.Program().DerivedPreds() {
						want := asSet(ref.Rows(pred))
						for i := 1; i < len(views); i++ {
							got := asSet(views[i].Rows(pred))
							if !sameSet(want, got) {
								t.Fatalf("seed %d round %d: %s diverges under %v\nwant %v\ngot  %v",
									seed, round, pred, strategies[i], want, got)
							}
						}
						// No negative stored counts anywhere.
						for _, v := range views {
							for _, row := range v.Rows(pred) {
								if row.Count < 0 {
									t.Fatalf("negative count %s%v = %d", pred, row.Tuple, row.Count)
								}
							}
						}
					}
				}
				// So is the Δ of a rule edit (DRed, the last strategy).
				dv := views[len(views)-1]
				for _, edit := range []struct {
					name string
					run  func() (*ivm.ChangeSet, error)
				}{
					{"AddRule", func() (*ivm.ChangeSet, error) { return dv.AddRule(tc.extraRule) }},
					{"RemoveRule", func() (*ivm.ChangeSet, error) { return dv.RemoveRule(len(dv.Program().Rules) - 1) }},
				} {
					before := derivedRows(dv)
					borrowed := watchBorrowing(dv)
					cs, err := edit.run()
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, edit.name, err)
					}
					if fresh, built := borrowed(t, fmt.Sprintf("seed %d %s", seed, edit.name)); built < fresh {
						t.Fatalf("seed %d %s: %d heads built for %d new rows", seed, edit.name, built, fresh)
					}
					if diff := changeSetIsRowDiff(cs, ivm.DRed, before, derivedRows(dv)); diff != "" {
						t.Fatalf("seed %d %s: %s", seed, edit.name, diff)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Error(err)
			}
		})
	}
}

// buildDelta picks deletions from the view's current link relation plus
// random insertions, avoiding duplicate-tuple nets that would over-delete.
func buildDelta(rng *rand.Rand, v *ivm.Views, weighted bool) *ivm.Update {
	u := ivm.NewUpdate()
	rows := v.Rows("link")
	used := map[string]bool{}
	for i := 0; i < 2 && len(rows) > 0; i++ {
		row := rows[rng.Intn(len(rows))]
		k := row.Tuple.Key()
		if used[k] {
			continue
		}
		used[k] = true
		u.InsertTuple("link", row.Tuple, -1)
	}
	for i := 0; i < 2; i++ {
		a, b := rng.Intn(7), rng.Intn(7)
		if a == b {
			continue
		}
		var tu ivm.Tuple
		if weighted {
			tu = ivm.T(nodeName(a), nodeName(b), int64(1+rng.Intn(6)))
		} else {
			tu = ivm.T(nodeName(a), nodeName(b))
		}
		k := tu.Key()
		if used[k] || v.Has("link", tupleArgs(tu)...) {
			continue
		}
		used[k] = true
		u.InsertTuple("link", tu, 1)
	}
	return u
}

func asSet(rows []ivm.Row) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		if r.Count > 0 {
			out[r.Tuple.Key()] = true
		}
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestPropertyCountsAreTrueDerivationCounts: under duplicate semantics the
// stored counts of the counting engine equal the counts a from-scratch
// evaluation produces (Theorem 4.1), across random update sequences.
func TestPropertyCountsAreTrueDerivationCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomEdges(rng, 6, 10, false).String()

		db1 := ivm.NewDatabase()
		db1.MustLoad(base)
		counted, err := db1.Materialize(`
			hop(X,Y)     :- link(X,Z), link(Z,Y).
			tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
		`, ivm.WithSemantics(ivm.DuplicateSemantics))
		if err != nil {
			t.Fatal(err)
		}
		db2 := ivm.NewDatabase()
		db2.MustLoad(base)
		oracle, err := db2.Materialize(`
			hop(X,Y)     :- link(X,Z), link(Z,Y).
			tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
		`, ivm.WithSemantics(ivm.DuplicateSemantics), ivm.WithStrategy(ivm.Recompute))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			d := buildDelta(rng, counted, false)
			if d.Empty() {
				continue
			}
			if _, err := counted.Apply(d); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if _, err := oracle.Apply(d); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, pred := range []string{"hop", "tri_hop"} {
				a, b := counted.Rows(pred), oracle.Rows(pred)
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if !a[i].Tuple.Equal(b[i].Tuple) || a[i].Count != b[i].Count {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRuleChangesAgreeWithRematerialize: after a random sequence
// of AddRule/RemoveRule operations interleaved with data changes, the
// DRed-maintained views equal a fresh materialization of the final
// program over the final base (the Section 7 rule-maintenance claim). It
// also checks the fold law across edits: every commit's record, rule
// edits included, folded into a second Views built from the initial
// ReplicaState lands on the primary's rows, program, version and change
// set after each operation — a predicate an edit stops deriving too.
func TestPropertyRuleChangesAgreeWithRematerialize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		baseFacts := randomEdges(rng, 7, 12, false).String()
		db := ivm.NewDatabase()
		db.MustLoad(baseFacts)
		v, err := db.Materialize(`
			tc(X,Y) :- link(X,Y).
			tc(X,Y) :- tc(X,Z), link(Z,Y).
		`, ivm.WithStrategy(ivm.DRed))
		if err != nil {
			t.Fatal(err)
		}
		folded, err := ivm.ViewsFromReplicaState(v.Snapshot().ReplicaState())
		if err != nil {
			t.Fatal(err)
		}
		var events []ivm.CommitEvent
		v.OnCommitRecord(func(ev ivm.CommitEvent) { events = append(events, ev) })
		preds := []string{"link", "hyper", "bridge", "tc", "hub"}
		fold := func(what string, want *ivm.ChangeSet) {
			t.Helper()
			if len(events) != 1 || events[0].Version != want.Version() {
				t.Fatalf("seed %d: %s: commit events %+v, want one at version %d", seed, what, events, want.Version())
			}
			got, err := folded.ApplyCommitRecord(events[0].CommitRecord)
			if err != nil {
				t.Fatalf("seed %d: %s: fold: %v", seed, what, err)
			}
			events = events[:0]
			what = fmt.Sprintf("seed %d: %s: folded vs primary", seed, what)
			requireSameChanges(t, what, want, got)
			requireSameRows(t, what, preds, v, folded, true)
			if folded.ProgramSource() != v.ProgramSource() {
				t.Fatalf("%s: program\n%s\nwant\n%s", what, folded.ProgramSource(), v.ProgramSource())
			}
		}
		do := func(what string, cs *ivm.ChangeSet, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, what, err)
			}
			fold(what, cs)
		}
		extraRules := []string{
			`tc(X,Y) :- hyper(X,Y).`,
			`tc(X,Y) :- bridge(X,Z), bridge(Z,Y).`,
			`hub(X) :- tc(X,Y), hyper(Y,X).`,
		}
		added := []int{} // rule indexes of added extras, in v.Program order
		for round := 0; round < 8; round++ {
			switch rng.Intn(3) {
			case 0: // data change
				d := buildDelta(rng, v, false)
				if !d.Empty() {
					cs, err := v.Apply(d)
					do("apply", cs, err)
				}
				// Feed the auxiliary base relations occasionally.
				if rng.Intn(2) == 0 {
					cs, err := v.Apply(ivm.NewUpdate().Insert("hyper", nodeName(rng.Intn(7)), nodeName(rng.Intn(7))))
					do("apply", cs, err)
				}
			case 1: // add a rule (if not all added)
				if len(added) < len(extraRules) {
					idx := len(v.Program().Rules)
					cs, err := v.AddRule(extraRules[len(added)])
					do("addrule", cs, err)
					added = append(added, idx)
				}
			case 2: // remove the most recently added rule
				if len(added) > 0 {
					ri := added[len(added)-1]
					added = added[:len(added)-1]
					cs, err := v.RemoveRule(ri)
					do("rmrule", cs, err)
				}
			}
		}
		// Rematerialize the final program over the final base state.
		fresh := ivm.NewDatabase()
		for _, pred := range []string{"link", "hyper", "bridge"} {
			for _, row := range v.Rows(pred) {
				fresh.InsertTuple(pred, row.Tuple, 1)
			}
		}
		oracle, err := fresh.MaterializeProgram(v.Program(), v.ProgramSource(), ivm.WithStrategy(ivm.Recompute))
		if err != nil {
			t.Fatalf("seed %d oracle: %v", seed, err)
		}
		want := asSet(oracle.Rows("tc"))
		got := asSet(v.Rows("tc"))
		if !sameSet(want, got) {
			t.Fatalf("seed %d: tc diverges after rule changes\nprogram:\n%s\nwant %v\ngot  %v",
				seed, v.Program(), want, got)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
