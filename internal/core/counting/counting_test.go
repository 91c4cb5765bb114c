package counting

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ivm"
	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/value"
	"ivm/internal/workload"
)

func load(t *testing.T, src string) *eval.DB {
	t.Helper()
	facts, err := parser.ParseDelta(src)
	if err != nil {
		t.Fatal(err)
	}
	db := eval.NewDB()
	for _, f := range facts {
		db.Ensure(f.Pred, len(f.Tuple)).Add(f.Tuple, f.Count)
	}
	return db
}

func rules(t *testing.T, src string) *datalog.Program {
	t.Helper()
	prog, err := parser.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func delta(t *testing.T, src string) map[string]*relation.Relation {
	t.Helper()
	facts, err := parser.ParseDelta(src)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*relation.Relation)
	for _, f := range facts {
		r, ok := out[f.Pred]
		if !ok {
			r = relation.New(len(f.Tuple))
			out[f.Pred] = r
		}
		r.Add(f.Tuple, f.Count)
	}
	return out
}

func TestRejectsRecursive(t *testing.T) {
	prog := rules(t, `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`)
	if _, err := newEngine(prog, eval.NewDB(), eval.Set); err != ErrRecursive {
		t.Fatalf("err = %v, want ErrRecursive", err)
	}
}

// TestRecursiveRejectedWithoutOptIn: counting maintains no recursive
// stratum under either semantics, and a library user is told which
// strategies do. Duplicate semantics on a recursive program is refused
// under every strategy that could be asked to count it.
func TestRecursiveRejectedWithoutOptIn(t *testing.T) {
	const tc = `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`
	if _, err := newEngine(rules(t, tc), load(t, `link(a,b).`), eval.Duplicate); err != ErrRecursive {
		t.Fatalf("err = %v, want ErrRecursive", err)
	}
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b).`)
	_, err := db.Materialize(tc, ivm.WithStrategy(ivm.Counting))
	if !errors.Is(err, ErrRecursive) || !strings.Contains(err.Error(), "WithStrategy(DRed) or Auto") {
		t.Fatalf("err = %v, want ErrRecursive naming WithStrategy(DRed) or Auto", err)
	}
	for _, s := range []ivm.Strategy{ivm.Auto, ivm.Counting} {
		if _, err := db.Materialize(tc, ivm.WithStrategy(s), ivm.WithSemantics(ivm.DuplicateSemantics)); err == nil {
			t.Fatalf("%v with duplicate semantics materialized a recursive view", s)
		}
	}
	if rows := db.Rows("link"); len(rows) != 1 || db.Rows("tc") != nil {
		t.Fatalf("the refusals changed the database: link %v, tc %v", rows, db.Rows("tc"))
	}
}

func TestRejectsDerivedDelta(t *testing.T) {
	prog := rules(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	e, err := newEngine(prog, load(t, `link(a,b).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(delta(t, `+hop(a,b).`)); err == nil {
		t.Fatal("derived delta must be rejected")
	}
}

func TestRejectsOverDeletion(t *testing.T) {
	prog := rules(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	e, err := newEngine(prog, load(t, `link(a,b).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(delta(t, `-link(a,b) * 2.`)); err == nil {
		t.Fatal("deleting more copies than stored violates Lemma 4.1's precondition")
	}
	if _, err := e.Apply(delta(t, `-link(zz,qq).`)); err == nil {
		t.Fatal("deleting an absent tuple must be rejected")
	}
	// State unchanged after rejection.
	if e.Relation("link").Count(value.T("a", "b")) != 1 {
		t.Fatal("failed Apply must not mutate state")
	}
}

func TestInsertionsOfNewBasePred(t *testing.T) {
	// A base predicate that was empty at materialization time.
	prog := rules(t, `v(X,Y) :- link(X,Y), extra(Y).`)
	e, err := newEngine(prog, load(t, `link(a,b).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Apply(delta(t, `+extra(b).`))
	if err != nil {
		t.Fatal(err)
	}
	if ch["v"] == nil || ch["v"].Count(value.T("a", "b")) != 1 {
		t.Fatalf("Δv: %v", ch["v"])
	}
}

func TestUpdateAsDeleteInsert(t *testing.T) {
	// The paper treats updates as delete+insert in one batch.
	prog := rules(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	e, err := newEngine(prog, load(t, `link(a,b). link(b,c).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Apply(delta(t, `-link(b,c). +link(b,d).`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{value.T("a", "c").Key(): -1, value.T("a", "d").Key(): 1}
	got := make(map[string]int64)
	ch["hop"].Each(func(r relation.Row) { got[r.Tuple.Key()] = r.Count })
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("Δhop: %v", ch["hop"])
		}
	}
}

func TestEmptyDeltaNoChanges(t *testing.T) {
	prog := rules(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	e, err := newEngine(prog, load(t, `link(a,b). link(b,c).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Apply(map[string]*relation.Relation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 0 {
		t.Fatalf("changes: %v", ch)
	}
	if e.Stats().DeltaRulesEvaluated != 0 {
		t.Fatal("no delta rules should fire")
	}
}

func TestIrrelevantDeltaStopsEarly(t *testing.T) {
	prog := rules(t, `
		hop(X,Y) :- link(X,Z), link(Z,Y).
		other(X) :- unrelated(X).
	`)
	e, err := newEngine(prog, load(t, `link(a,b). link(b,c). unrelated(q).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Apply(delta(t, `+unrelated(z).`))
	if err != nil {
		t.Fatal(err)
	}
	if ch["hop"] != nil {
		t.Fatal("hop must not change")
	}
	if ch["other"] == nil {
		t.Fatal("other must change")
	}
	if e.Stats().DeltaRulesEvaluated != 1 {
		t.Fatalf("delta rules evaluated = %d, want 1", e.Stats().DeltaRulesEvaluated)
	}
}

func TestSelfJoinDeltaExactness(t *testing.T) {
	// Theorem 4.1 on the classic self-join trap: inserting a tuple that
	// joins with itself must produce exactly the new derivations, once.
	prog := rules(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	e, err := newEngine(prog, load(t, `link(a,a).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	// hop(a,a) via (a,a)x(a,a): count 1.
	if e.Relation("hop").Count(value.T("a", "a")) != 1 {
		t.Fatal("initial")
	}
	// Insert link(a,b) and link(b,a): new derivations
	//   hop(a,a): (a,b)(b,a)  → +1
	//   hop(b,b): (b,a)(a,b)  → +1
	//   hop(b,a): (b,a)(a,a)  → +1
	//   hop(a,b): (a,a)(a,b)  → +1
	ch, err := e.Apply(delta(t, `+link(a,b). +link(b,a).`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"a,a": 1, "b,b": 1, "b,a": 1, "a,b": 1}
	got := make(map[string]int64)
	ch["hop"].Each(func(r relation.Row) {
		key := r.Tuple[0].String() + "," + r.Tuple[1].String()
		got[key] = r.Count
	})
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("Δhop[%s] = %d, want %d (%v)", k, got[k], c, got)
		}
	}
	if e.Relation("hop").Count(value.T("a", "a")) != 2 {
		t.Fatal("hop(a,a) must have 2 derivations now")
	}
}

func TestNegationInsertionDeletesView(t *testing.T) {
	prog := rules(t, `
		v(X) :- t(X), !q(X).
	`)
	e, err := newEngine(prog, load(t, `t(a). t(b). q(b).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Relation("v").Has(value.T("a")) || e.Relation("v").Has(value.T("b")) {
		t.Fatal("initial v")
	}
	ch, err := e.Apply(delta(t, `+q(a). -q(b).`))
	if err != nil {
		t.Fatal(err)
	}
	if ch["v"].Count(value.T("a")) != -1 || ch["v"].Count(value.T("b")) != 1 {
		t.Fatalf("Δv: %v", ch["v"])
	}
}

func TestNegationCountInvariance(t *testing.T) {
	// Example 6.1's remark: ¬q(t) only cares whether count(q(t)) > 0.
	prog := rules(t, `v(X) :- t(X), !q(X).`)
	e, err := newEngine(prog, load(t, `t(a). q(a). q(a).`), eval.Duplicate) // q(a) count 2
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("v").Has(value.T("a")) {
		t.Fatal("v(a) false initially")
	}
	// Drop one of two q(a): still true, v unchanged.
	ch, err := e.Apply(delta(t, `-q(a).`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 0 {
		t.Fatalf("no view change expected: %v", ch)
	}
	// Drop the last: v(a) appears.
	ch, err = e.Apply(delta(t, `-q(a).`))
	if err != nil {
		t.Fatal(err)
	}
	if ch["v"].Count(value.T("a")) != 1 {
		t.Fatalf("Δv: %v", ch["v"])
	}
}

// TestRandomizedAgainstRecompute cross-checks counting maintenance against
// a from-scratch evaluation after each of many random delta batches
// (experiment E11's engine-level form).
func TestRandomizedAgainstRecompute(t *testing.T) {
	progSrc := `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
		dead(X,Y)    :- hop(X,Y), !tri_hop(X,Y).
	`
	prog := rules(t, progSrc)
	rng := rand.New(rand.NewSource(7))
	base := eval.NewDB()
	base.Put("link", workload.RandomGraph(rng, 12, 30))

	for _, sem := range []eval.Semantics{eval.Set, eval.Duplicate} {
		ce, err := newEngine(prog, base, sem)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 25; round++ {
			link := ce.Relation("link")
			d := workload.Mixed(rng, link, 12, 2, 2)
			if d.Empty() {
				continue
			}
			dm := map[string]*relation.Relation{"link": d}
			if _, err := ce.Apply(dm); err != nil {
				t.Fatalf("%v round %d: %v", sem, round, err)
			}
			re := recomputed(t, prog, ce, sem)
			for _, pred := range []string{"link", "hop", "tri_hop", "dead"} {
				a, b := ce.Relation(pred), re.Relation(pred)
				if sem == eval.Duplicate {
					if !relation.Equal(a, b) {
						t.Fatalf("%v round %d: %s counts diverge:\ncounting:  %v\nrecompute: %v", sem, round, pred, a, b)
					}
				} else if !relation.Equal(a.ToSet(), b.ToSet()) {
					t.Fatalf("%v round %d: %s sets diverge:\ncounting:  %v\nrecompute: %v", sem, round, pred, a, b)
				}
				// Theorem 4.1 / Lemma 4.1: no negative stored counts, ever.
				a.Each(func(r relation.Row) {
					if r.Count < 0 {
						t.Fatalf("negative stored count %s%v = %d", pred, r.Tuple, r.Count)
					}
				})
			}
		}
	}
}

// TestSetModeCountsEqualRecompute verifies the per-stratum counts of set
// semantics also match recompute exactly (not just as sets).
func TestSetModeCountsEqualRecompute(t *testing.T) {
	prog := rules(t, `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
	`)
	rng := rand.New(rand.NewSource(11))
	base := eval.NewDB()
	base.Put("link", workload.RandomGraph(rng, 10, 25))
	ce, err := newEngine(prog, base, eval.Set)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		d := workload.Mixed(rng, ce.Relation("link"), 10, 2, 2)
		dm := map[string]*relation.Relation{"link": d}
		if _, err := ce.Apply(dm); err != nil {
			t.Fatal(err)
		}
		re := recomputed(t, prog, ce, eval.Set)
		for _, pred := range []string{"hop", "tri_hop"} {
			if !relation.Equal(ce.Relation(pred), re.Relation(pred)) {
				t.Fatalf("round %d: %s per-stratum counts diverge:\ncounting:  %v\nrecompute: %v",
					round, pred, ce.Relation(pred), re.Relation(pred))
			}
		}
	}
}

// TestAblationNoSetOptStillCorrect: without statement (2) — full duplicate
// counts, so that every count change cascades — the results must still be
// correct as sets, just computed with more work.
func TestAblationNoSetOptStillCorrect(t *testing.T) {
	prog := rules(t, `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
	`)
	rng := rand.New(rand.NewSource(3))
	base := eval.NewDB()
	base.Put("link", workload.RandomGraph(rng, 10, 25))
	opt, err := NewWithConfig(prog, base, Config{Semantics: eval.Set})
	if err != nil {
		t.Fatal(err)
	}
	noOpt, err := NewWithConfig(prog, base, Config{Semantics: eval.Duplicate})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 15; round++ {
		d := workload.Mixed(rng, opt.Relation("link"), 10, 2, 2)
		dm := map[string]*relation.Relation{"link": d}
		if _, err := opt.Apply(dm); err != nil {
			t.Fatal(err)
		}
		if _, err := noOpt.Apply(dm); err != nil {
			t.Fatal(err)
		}
		if st := noOpt.Stats(); st.CascadeStopped != 0 {
			t.Fatalf("round %d: %d cascades stopped without statement (2)", round, st.CascadeStopped)
		}
		for _, pred := range []string{"hop", "tri_hop"} {
			if !relation.Equal(opt.Relation(pred).ToSet(), noOpt.Relation(pred).ToSet()) {
				t.Fatalf("round %d: %s diverges under ablation", round, pred)
			}
		}
	}
}

func TestAggregateMaintenanceAgainstRecompute(t *testing.T) {
	prog := rules(t, `
		cost(S,D,C1+C2)  :- link(S,I,C1), link(I,D,C2).
		mc(S,D,M)        :- groupby(cost(S,D,C), [S,D], M = min(C)).
		total(S,N)       :- groupby(cost(S,D,C), [S], N = sum(C)).
		cnt(S,N)         :- groupby(cost(S,D,C), [S], N = count(C)).
	`)
	rng := rand.New(rand.NewSource(5))
	base := eval.NewDB()
	base.Put("link", workload.RandomWeightedGraph(rng, 8, 20, 10))
	ce, err := newEngine(prog, base, eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		link := ce.Relation("link")
		d := workload.SampleDeletes(rng, link, 1)
		// Random weighted insertion.
		ins := workload.RandomWeightedGraph(rng, 8, 1, 10)
		ins.Each(func(r relation.Row) {
			if !link.Has(r.Tuple) && d.Count(r.Tuple) == 0 {
				d.Add(r.Tuple, 1)
			}
		})
		if d.Empty() {
			continue
		}
		dm := map[string]*relation.Relation{"link": d}
		if _, err := ce.Apply(dm); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		re := recomputed(t, prog, ce, eval.Duplicate)
		for _, pred := range []string{"cost", "mc", "total", "cnt"} {
			if !relation.Equal(ce.Relation(pred), re.Relation(pred)) {
				t.Fatalf("round %d: %s diverges:\ncounting:  %v\nrecompute: %v",
					round, pred, ce.Relation(pred), re.Relation(pred))
			}
		}
	}
}

func TestMultiPredicateBatch(t *testing.T) {
	// One Apply touching several base relations at once: deltas must
	// combine within a single delta-rule pass per stratum.
	prog := rules(t, `
		edge(X,Y) :- road(X,Y).
		edge(X,Y) :- rail(X,Y).
		hop(X,Y)  :- edge(X,Z), edge(Z,Y).
	`)
	e, err := newEngine(prog, load(t, `road(a,b). rail(b,c).`), eval.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("hop").Count(value.T("a", "c")) != 1 {
		t.Fatal("initial")
	}
	// Swap both legs in one batch: delete road(a,b)+rail(b,c), insert
	// rail(a,b)+road(b,c). hop(a,c) must survive with count 1 (net), and
	// the intermediate edge counts stay 1.
	ch, err := e.Apply(delta(t, `-road(a,b). -rail(b,c). +rail(a,b). +road(b,c).`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("hop").Count(value.T("a", "c")) != 1 {
		t.Fatalf("hop: %v", e.Relation("hop"))
	}
	if e.Relation("edge").Count(value.T("a", "b")) != 1 {
		t.Fatalf("edge: %v", e.Relation("edge"))
	}
	// Net change to hop is zero: the visible delta must be empty for hop.
	if d := ch["hop"]; d != nil && !d.Empty() {
		t.Fatalf("Δhop should be net empty: %v", d)
	}
}

// newEngine materializes prog over base under sem with counting on every
// stratum.
// recomputed is prog evaluated from scratch over e's base relations.
func recomputed(t *testing.T, prog *datalog.Program, e *dred.Engine, sem eval.Semantics) *dred.Engine {
	t.Helper()
	base, derived := eval.NewDB(), prog.DerivedPreds()
	for _, pred := range e.Preds() {
		if !derived[pred] {
			base.Put(pred, e.Relation(pred))
		}
	}
	re, err := dred.NewWithConfig(prog, base, dred.Config{Algorithm: dred.Recompute, Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	return re
}

func newEngine(prog *datalog.Program, base *eval.DB, sem eval.Semantics) (*dred.Engine, error) {
	return NewWithConfig(prog, base, Config{Semantics: sem})
}
