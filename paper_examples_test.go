package ivm_test

// Golden tests reproducing every worked example of Gupta, Mumick &
// Subrahmanian, "Maintaining Views Incrementally" (SIGMOD 1993), with the
// exact relations and counts printed in the paper.

import (
	"fmt"
	"testing"

	"ivm"
)

// wantRows asserts that pred's materialization is exactly the given
// "tuple:count" rows (order-insensitive; count omitted means 1).
func wantRows(t *testing.T, v *ivm.Views, pred string, want map[string]int64) {
	t.Helper()
	got := make(map[string]int64)
	for _, row := range v.Rows(pred) {
		key := ""
		for i, val := range row.Tuple {
			if i > 0 {
				key += ","
			}
			key += val.String()
		}
		got[key] = row.Count
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", pred, got, want)
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: tuple %s has count %d, want %d (full: %v)", pred, k, got[k], c, got)
		}
	}
}

// wantDelta asserts the change set for pred is exactly the given signed
// counts.
func wantDelta(t *testing.T, ch *ivm.ChangeSet, pred string, want map[string]int64) {
	t.Helper()
	got := make(map[string]int64)
	for _, row := range ch.Delta(pred) {
		key := ""
		for i, val := range row.Tuple {
			if i > 0 {
				key += ","
			}
			key += val.String()
		}
		got[key] = row.Count
	}
	if fmt.Sprint(got) != fmt.Sprint(normalize(want)) {
		t.Fatalf("Δ(%s): got %v, want %v", pred, got, want)
	}
}

func normalize(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

const example11Links = `
	link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).
`

// TestExample11Counting reproduces Example 1.1: deleting link(a,b) under
// the counting algorithm deletes hop(a,e) (count 1→0) but keeps hop(a,c)
// (count 2→1).
func TestExample11Counting(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(example11Links)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	if v.Strategy() != ivm.Counting {
		t.Fatalf("strategy = %v, want counting", v.Strategy())
	}
	wantRows(t, v, "hop", map[string]int64{"a,c": 2, "a,e": 1})

	ch, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	wantDelta(t, ch, "hop", map[string]int64{"a,c": -1, "a,e": -1})
	wantRows(t, v, "hop", map[string]int64{"a,c": 1})
}

// TestExample11DRed reproduces Example 1.1 under DRed: both hop tuples are
// overestimated as deleted, and hop(a,c) is rederived.
func TestExample11DRed(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(example11Links)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithStrategy(ivm.DRed))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "hop", map[string]int64{"a,c": 1, "a,e": 1})

	ch, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	wantDelta(t, ch, "hop", map[string]int64{"a,e": -1})
	wantRows(t, v, "hop", map[string]int64{"a,c": 1})

	tr := v.Trace()
	if tr.Strategy != ivm.DRed {
		t.Fatalf("traced strategy %v, want dred", tr.Strategy)
	}
	st := tr.Stats
	// The paper: "DRed first deletes tuples hop(a,c) and hop(a,e) ...
	// hop(a,c) is rederived and reinserted in the second step."
	if st.Overestimated != 2 || st.Rederived != 1 {
		t.Fatalf("overestimated=%d rederived=%d, want 2 and 1", st.Overestimated, st.Rederived)
	}
}

const example42Program = `
	hop(X,Y)     :- link(X,Z), link(Z,Y).
	tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
`

const example42Links = `
	link(a,b). link(a,d). link(d,c). link(b,c). link(c,h). link(f,g).
`

// TestExample42 reproduces Example 4.2 under duplicate semantics: the
// two-stratum maintenance of hop and tri_hop with the paper's exact
// deltas.
func TestExample42(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(example42Links)
	v, err := db.Materialize(example42Program, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "hop", map[string]int64{"a,c": 2, "d,h": 1, "b,h": 1})
	wantRows(t, v, "tri_hop", map[string]int64{"a,h": 2})

	// Δ(link) = {ab -1, df +1, af +1}
	ch, err := v.ApplyScript(`-link(a,b). +link(d,f). +link(a,f).`)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Δ(hop) = {ac -1, ag, dg} ⊎ {af}
	wantDelta(t, ch, "hop", map[string]int64{"a,c": -1, "a,g": 1, "d,g": 1, "a,f": 1})
	// Paper: Δ(tri_hop) = {ah -1, ag}
	wantDelta(t, ch, "tri_hop", map[string]int64{"a,h": -1, "a,g": 1})

	wantRows(t, v, "hop", map[string]int64{"a,c": 1, "a,f": 1, "a,g": 1, "d,g": 1, "d,h": 1, "b,h": 1})
	wantRows(t, v, "tri_hop", map[string]int64{"a,h": 1, "a,g": 1})
}

// TestExample51SetOptimization reproduces Example 5.1: under set
// semantics, hop(a,c) losing one of two derivations is NOT cascaded to
// tri_hop (statement (2) of Algorithm 4.1), so Δ(tri_hop) has no ah entry
// beyond the insertion side.
func TestExample51SetOptimization(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(example42Links)
	v, err := db.Materialize(example42Program, ivm.WithSemantics(ivm.SetSemantics))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.ApplyScript(`-link(a,b). +link(d,f). +link(a,f).`)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: Δ(hop) as sets = {af, ag, dg} — ac is NOT deleted (still
	// derivable), so it must not cascade.
	for _, row := range ch.Deleted("hop") {
		t.Fatalf("unexpected hop deletion %v", row.Tuple)
	}
	// tri_hop gains ag; ah must survive because hop(a,c) survived.
	wantRows(t, v, "tri_hop", map[string]int64{"a,h": 1, "a,g": 1})
	if !v.Has("tri_hop", "a", "h") {
		t.Fatal("tri_hop(a,h) should survive under the set-semantics optimization")
	}

	st := v.Trace().Stats
	if st.CascadeStopped != 0 {
		// hop's set image DID change (af, ag, dg inserted) so the cascade
		// is not fully stopped — this asserts the stat only counts full
		// stops.
		t.Fatalf("CascadeStopped = %d, want 0", st.CascadeStopped)
	}
}

// TestStatement2FullStop drives a case where counts change but set images
// do not, so the whole cascade halts at stratum 1.
func TestStatement2FullStop(t *testing.T) {
	db := ivm.NewDatabase()
	// p(a) has two derivations via r1/r2; q copies p.
	db.MustLoad(`r1(a). r2(a).`)
	v, err := db.Materialize(`
		p(X) :- r1(X).
		p(X) :- r2(X).
		q(X) :- p(X).
	`, ivm.WithSemantics(ivm.SetSemantics))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "p", map[string]int64{"a": 2})
	wantRows(t, v, "q", map[string]int64{"a": 1})

	ch, err := v.Apply(ivm.NewUpdate().Delete("r1", "a"))
	if err != nil {
		t.Fatal(err)
	}
	// p's count drops 2→1 but its set image is unchanged: q must not
	// change and the cascade must stop.
	if len(ch.Delta("q")) != 0 {
		t.Fatalf("Δ(q) = %v, want empty", ch.Delta("q"))
	}
	st := v.Trace().Stats
	if st.CascadeStopped != 1 {
		t.Fatalf("CascadeStopped = %d, want 1", st.CascadeStopped)
	}
	wantRows(t, v, "p", map[string]int64{"a": 1})
	wantRows(t, v, "q", map[string]int64{"a": 1})
}

const example61Links = `
	link(a,b). link(a,e). link(a,f). link(a,g). link(b,c). link(c,d).
	link(c,k). link(e,d). link(f,d). link(g,h). link(h,k).
`

const example61Program = `
	hop(X,Y)          :- link(X,Z), link(Z,Y).
	tri_hop(X,Y)      :- hop(X,Z), link(Z,Y).
	only_tri_hop(X,Y) :- tri_hop(X,Y), !hop(X,Y).
`

// TestExample61Negation reproduces Example 6.1's relations, then
// exercises maintenance through the negated subgoal.
func TestExample61Negation(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(example61Links)
	v, err := db.Materialize(example61Program, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "hop", map[string]int64{
		"a,c": 1, "a,d": 2, "a,h": 1, "b,d": 1, "b,k": 1, "g,k": 1,
	})
	wantRows(t, v, "tri_hop", map[string]int64{"a,d": 1, "a,k": 2})
	wantRows(t, v, "only_tri_hop", map[string]int64{"a,k": 2})

	// Delete link(b,c): hop loses ac and bd and bk; tri_hop loses ad and
	// one ak derivation (via hop(a,c),link(c,k)); hop(a,d) still true so
	// only_tri_hop unchanged except ak's count drop.
	ch, err := v.Apply(ivm.NewUpdate().Delete("link", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "hop", map[string]int64{"a,d": 2, "a,h": 1, "g,k": 1})
	wantRows(t, v, "tri_hop", map[string]int64{"a,k": 1})
	wantRows(t, v, "only_tri_hop", map[string]int64{"a,k": 1})
	if len(ch.Deleted("only_tri_hop")) != 1 {
		t.Fatalf("Δ(only_tri_hop) deletions = %v", ch.Deleted("only_tri_hop"))
	}

	// Now insert hop-killing tuple: link(a,k) makes hop(a,k) true via no
	// 2-path... instead insert link(a,c) giving hop(a,k) (a-c-k), which
	// negates only_tri_hop(a,k) away.
	_, err = v.Apply(ivm.NewUpdate().Insert("link", "a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Has("only_tri_hop", "a", "k") {
		t.Fatal("only_tri_hop(a,k) should be deleted once hop(a,k) is derivable")
	}
}

// TestExample62Aggregation reproduces Example 6.2: min_cost_hop over
// weighted links, maintained through insertions and deletions that move
// group minima (Algorithm 6.1).
func TestExample62Aggregation(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`
		link(a,b,10). link(b,c,20). link(b,e,5). link(a,d,15). link(d,c,6).
	`)
	v, err := db.Materialize(`
		hop(S,D,C1+C2)    :- link(S,I,C1), link(I,D,C2).
		min_cost_hop(S,D,M) :- groupby(hop(S,D,C), [S,D], M = min(C)).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "hop", map[string]int64{
		"a,c,30": 1, // a-b-c
		"a,e,15": 1, // a-b-e
		"a,c,21": 1, // a-d-c
	})
	wantRows(t, v, "min_cost_hop", map[string]int64{"a,c,21": 1, "a,e,15": 1})

	// Insert a cheaper path a-b' with hop cost 12: link(a,x,6), link(x,c,6).
	ch, err := v.ApplyScript(`+link(a,x,6). +link(x,c,6).`)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "min_cost_hop", map[string]int64{"a,c,12": 1, "a,e,15": 1})
	wantDelta(t, ch, "min_cost_hop", map[string]int64{"a,c,21": -1, "a,c,12": 1})

	// Delete the minimum: the group falls back to the next value, 21.
	_, err = v.ApplyScript(`-link(x,c,6).`)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "min_cost_hop", map[string]int64{"a,c,21": 1, "a,e,15": 1})

	// Delete every a→c hop: the group disappears.
	_, err = v.ApplyScript(`-link(b,c,20). -link(d,c,6).`)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, v, "min_cost_hop", map[string]int64{"a,e,15": 1})
}
