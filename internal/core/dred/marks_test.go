package dred

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// unmarked fails t if a place of a stored relation of e is still marked,
// or a predicate's overestimate is not empty: steps 1 and 2 mark places
// of the state, and the stratum clears every mark it set when it ends or
// fails, before the state changes.
func unmarked(t *testing.T, e *Engine, where string) {
	t.Helper()
	for _, pred := range e.Preds() {
		s := e.Stored(pred)
		for p := range s.Len() {
			if s.Mark(p, false) {
				t.Fatalf("%s: %s's place %d is still marked", where, pred, p)
			}
		}
		if pl := e.over[pred]; pl != nil && (len(pl.ps) != 0 || pl.end != 0 || pl.stored != nil) {
			t.Fatalf("%s: %s's place list holds %d places, its window ends at %d", where, pred, len(pl.ps), pl.end)
		}
	}
}

// TestStepsOneAndTwoLocateEachHeadOnce runs a small tc delete/re-insert
// stream over a published state and pins one stored-state probe by key for
// each head steps 1 and 2 derive — step 1's output takes a head by marking
// its place, step 2's by clearing the mark, neither copies it into a table
// first — on top of the probes the apply makes of its base Δ rows (Counts,
// and Lend for the ones it inserts) and the commit's merge of every row it
// commits. When the stratum ends, tc's place list holds the |O| places
// step 1 overestimated and then the |R| step 2 rederived, which its rounds
// read as windows of it; after every apply the list is empty and no place
// is marked.
func TestStepsOneAndTwoLocateEachHeadOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := eval.NewDB()
	base.Put("link", flipBase(rng, 5, 8, 2, 10))
	var e *Engine
	listed := -1
	atEnd := &metrics.FuncTracer{OnStratumDone: func(int, time.Duration) { listed = len(e.over["tc"].ps) }}
	e, err := NewWithConfig(rules(t, tcProgram), base, Config{Tracer: atEnd})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range e.Preds() { // the state is shared from here on: writes go to its net
		e.Stored(pred).Publish(nil, nil)
	}
	heads := func() int { return e.mark.heads }
	var overestimated, rederived int
	for i := range 24 {
		d := workload.SampleDeletes(rng, e.Relation("link"), 3)
		for _, d := range []*relation.Relation{d, d.Negate()} {
			probes, heads0 := relation.RowProbes(), heads()
			listed = -1
			if _, err := e.Apply(map[string]*relation.Relation{"link": d}); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); listed != st.Overestimated+st.Rederived {
				t.Fatalf("apply %d: tc's place list held %d places when its stratum ended, want |O| %d + |R| %d", i, listed, st.Overestimated, st.Rederived)
			}
			want := int64(d.Len() + heads() - heads0) // Counts, and Place
			for _, c := range e.CommittedDeltas() {
				want += int64(c.Len()) // MergeDelta
			}
			for p := range d.Len() {
				if d.At(p).Count > 0 {
					want++ // Lend
				}
			}
			if got := relation.RowProbes() - probes; got != want {
				t.Fatalf("apply %d: %d probes of the stored state by key, want %d: one a base Δ row and a committed row, one a head of steps 1–2 (%d)", i, got, want, heads()-heads0)
			}
			overestimated, rederived = overestimated+e.Stats().Overestimated, rederived+e.Stats().Rederived
			unmarked(t, e, "after a committed apply")
		}
	}
	if heads() == 0 || overestimated == 0 || rederived == 0 {
		t.Fatalf("steps 1 and 2 took %d heads, overestimated %d and rederived %d: the stream deletes nothing that matters", heads(), overestimated, rederived)
	}
}

// TestMarksClearWhenAStratumFailsOrAnEditSeedsIt: an apply refused in the
// middle of step 1 — a link's deletion has marked r's places when the
// aggregate's Δ fails — and a rule edit whose seed runs step 1 leave no
// place marked, and the next applies maintain the views as a
// recomputation does.
func TestMarksClearWhenAStratumFailsOrAnEditSeedsIt(t *testing.T) {
	prog := rules(t, `
		r(X,Y) :- link(X,Y).
		r(X,Y) :- groupby(sales(X,V), [X], Y = sum(V)).
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- alt(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).`)
	e, err := NewWithConfig(prog, load(t, `link(a,b). link(b,c). link(c,d). alt(a,c). alt(b,d). sales(a,1).`), Config{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(where string) {
		t.Helper()
		unmarked(t, e, where)
		re := recomputed(t, e.Program(), e, eval.Set)
		for _, pred := range []string{"r", "tc"} {
			if !relation.Equal(e.Relation(pred).ToSet(), re.Relation(pred).ToSet()) {
				t.Fatalf("%s: %s = %v, recomputed %v", where, pred, e.Relation(pred), re.Relation(pred))
			}
		}
	}
	_, err = e.Apply(delta(t, `-link(a,b). +sales(a,"oops").`))
	if err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("apply: err = %v, want a sum over a non-numeric value", err)
	}
	check("after an apply refused in step 1")
	if _, err := e.Apply(delta(t, `-link(a,b).`)); err != nil {
		t.Fatal(err)
	}
	check("after the apply that follows")
	if e.Stats().Overestimated == 0 {
		t.Fatal("deleting link(a,b) overestimated nothing")
	}
	if _, err := e.RemoveRule(3); err != nil { // tc(X,Y) :- alt(X,Y): its derivations seed step 1
		t.Fatal(err)
	}
	if e.Stats().Overestimated == 0 {
		t.Fatal("removing the alt rule overestimated nothing")
	}
	check("after a rule edit")
	if _, err := e.Apply(delta(t, `+link(a,b). -link(c,d).`)); err != nil {
		t.Fatal(err)
	}
	check("after the apply that follows the edit")
}
