package dred

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/value"
	"ivm/internal/workload"
)

// split reads an operation's signed deltas as the tuples that left and the
// tuples that entered each view, counts 1 — the two halves the assertions
// of this package are written against.
func split(ch map[string]*relation.Relation) (del, add map[string]*relation.Relation) {
	del, add = make(map[string]*relation.Relation), make(map[string]*relation.Relation)
	for pred, n := range ch {
		if d := signPart(n, true); !d.Empty() {
			del[pred] = d
		}
		if a := signPart(n, false); !a.Empty() {
			add[pred] = a
		}
	}
	return del, add
}

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

// recomputed is prog evaluated from scratch over e's base relations.
func recomputed(t *testing.T, prog *datalog.Program, e *Engine, sem eval.Semantics) *Engine {
	t.Helper()
	base, derived := eval.NewDB(), prog.DerivedPreds()
	for _, pred := range e.Preds() {
		if !derived[pred] {
			base.Put(pred, e.Relation(pred))
		}
	}
	re, err := NewWithConfig(prog, base, Config{Algorithm: Recompute, Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	return re
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

const tcProgram = `
	tc(X,Y) :- link(X,Y).
	tc(X,Y) :- tc(X,Z), link(Z,Y).
`

func TestTCDeleteWithAlternativePath(t *testing.T) {
	// a→b→d and a→c→d; deleting a→b keeps a⇝d via c.
	e, err := New(rules(t, tcProgram), load(t, `link(a,b). link(b,d). link(a,c). link(c,d).`))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Apply(delta(t, `-link(a,b).`))
	if err != nil {
		t.Fatal(err)
	}
	del, _ := split(ch)
	if !e.Relation("tc").Has(value.T("a", "d")) {
		t.Fatal("a⇝d must survive via c")
	}
	if e.Relation("tc").Has(value.T("a", "b")) {
		t.Fatal("a⇝b must be deleted")
	}
	if del["tc"] == nil || !del["tc"].Has(value.T("a", "b")) {
		t.Fatalf("Del: %v", del["tc"])
	}
	// a⇝d was overestimated then rederived.
	if e.Stats().Rederived == 0 {
		t.Fatal("expected rederivations")
	}
}

func TestTCCycleDeletion(t *testing.T) {
	// Cycle a→b→c→a plus chord a→c. Deleting b→c must keep everything
	// reachable through the chord but drop pairs needing b→c.
	e, err := New(rules(t, tcProgram), load(t, `link(a,b). link(b,c). link(c,a). link(a,c).`))
	if err != nil {
		t.Fatal(err)
	}
	// Initially: complete digraph on {a,b,c} (all 9 pairs).
	if e.Relation("tc").Len() != 9 {
		t.Fatalf("initial tc: %v", e.Relation("tc"))
	}
	if _, err = e.Apply(delta(t, `-link(b,c).`)); err != nil {
		t.Fatal(err)
	}
	// Remaining edges: a→b, c→a, a→c. b has no outgoing edge.
	want := map[string]bool{
		"a,b": true, "a,c": true, "c,a": true,
		"a,a": true, "c,c": true, "c,b": true,
	}
	tc := e.Relation("tc")
	if tc.Len() != len(want) {
		t.Fatalf("tc after: %v", tc)
	}
	for k := range want {
		var a, b string
		for i, r := 0, []rune(k); i < len(r); i++ {
			if r[i] == ',' {
				a, b = string(r[:i]), string(r[i+1:])
			}
		}
		if !tc.Has(value.T(a, b)) {
			t.Fatalf("missing %s: %v", k, tc)
		}
	}
}

func TestInsertionSemiNaive(t *testing.T) {
	e, err := New(rules(t, tcProgram), load(t, `link(a,b). link(c,d).`))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Apply(delta(t, `+link(b,c).`))
	if err != nil {
		t.Fatal(err)
	}
	_, add := split(ch)
	// New pairs: b⇝c, a⇝c, b⇝d, a⇝d.
	if add["tc"].Len() != 4 {
		t.Fatalf("Add: %v", add["tc"])
	}
	if e.Stats().Overestimated != 0 {
		t.Fatal("pure insertion must not run deletions")
	}
}

func TestRederiveThroughLongerPath(t *testing.T) {
	// Delete a direct edge whose endpoints stay connected via a long path:
	// rederivation must chase the recursion, not just one step.
	e, err := New(rules(t, tcProgram), load(t, `
		link(a,z). link(a,b). link(b,c). link(c,d). link(d,z).
	`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(delta(t, `-link(a,z).`)); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("tc").Has(value.T("a", "z")) {
		t.Fatal("a⇝z survives via b,c,d")
	}
}

func TestMixedBatchDeleteAndInsert(t *testing.T) {
	e, err := New(rules(t, tcProgram), load(t, `link(a,b). link(b,c).`))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.Apply(delta(t, `-link(b,c). +link(b,d).`))
	if err != nil {
		t.Fatal(err)
	}
	del, add := split(ch)
	tc := e.Relation("tc")
	for _, want := range []value.Tuple{value.T("a", "b"), value.T("b", "d"), value.T("a", "d")} {
		if !tc.Has(want) {
			t.Fatalf("missing %v: %v", want, tc)
		}
	}
	if tc.Has(value.T("a", "c")) || tc.Has(value.T("b", "c")) {
		t.Fatalf("stale pairs: %v", tc)
	}
	if del["tc"].Len() != 2 || add["tc"].Len() != 2 {
		t.Fatalf("changes: Del %v Add %v", del["tc"], add["tc"])
	}
}

func TestDeleteEverything(t *testing.T) {
	e, err := New(rules(t, tcProgram), load(t, `link(a,b). link(b,c).`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(delta(t, `-link(a,b). -link(b,c).`)); err != nil {
		t.Fatal(err)
	}
	if e.Relation("tc").Len() != 0 {
		t.Fatalf("tc must be empty: %v", e.Relation("tc"))
	}
}

func TestTheorem71RandomizedAgainstRecompute(t *testing.T) {
	// Theorem 7.1: after DRed the view contains t iff t is derivable in
	// the new database — cross-checked against full recomputation over
	// random mixed batches on a grid graph (dense alternative paths).
	prog := rules(t, tcProgram)
	rng := rand.New(rand.NewSource(42))
	base := eval.NewDB()
	base.Put("link", workload.GridGraph(4, 4))

	e, err := New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		d := workload.Mixed(rng, e.Relation("link"), 16, 2, 2)
		if d.Empty() {
			continue
		}
		dm := map[string]*relation.Relation{"link": d}
		if _, err := e.Apply(dm); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if re := recomputed(t, prog, e, eval.Set); !relation.Equal(e.Relation("tc").ToSet(), re.Relation("tc").ToSet()) {
			t.Fatalf("round %d: tc diverges\ndred:      %v\nrecompute: %v",
				round, e.Relation("tc"), re.Relation("tc"))
		}
	}
}

func TestStratifiedNegationOverRecursion(t *testing.T) {
	prog := rules(t, `
		tc(X,Y)      :- link(X,Y).
		tc(X,Y)      :- tc(X,Z), link(Z,Y).
		unreach(X,Y) :- node(X), node(Y), !tc(X,Y).
	`)
	e, err := New(prog, load(t, `link(a,b). node(a). node(b). node(c).`))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Relation("unreach").Has(value.T("a", "c")) {
		t.Fatal("a cannot reach c initially")
	}
	// Insert link(b,c): tc(a,c) appears → unreach(a,c) must be deleted.
	ch, err := e.Apply(delta(t, `+link(b,c).`))
	if err != nil {
		t.Fatal(err)
	}
	del, _ := split(ch)
	if e.Relation("unreach").Has(value.T("a", "c")) {
		t.Fatal("unreach(a,c) must be deleted after insertion into tc")
	}
	if del["unreach"] == nil || !del["unreach"].Has(value.T("a", "c")) {
		t.Fatalf("Del(unreach): %v", del["unreach"])
	}
	// Delete link(b,c) again: unreach(a,c) reappears.
	if _, err := e.Apply(delta(t, `-link(b,c).`)); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("unreach").Has(value.T("a", "c")) {
		t.Fatal("unreach(a,c) must reappear")
	}
}

func TestAggregateOverRecursiveView(t *testing.T) {
	// Count the nodes each node reaches; maintained through DRed.
	prog := rules(t, `
		tc(X,Y)    :- link(X,Y).
		tc(X,Y)    :- tc(X,Z), link(Z,Y).
		reach(X,N) :- groupby(tc(X,Y), [X], N = count(Y)).
	`)
	e, err := New(prog, load(t, `link(a,b). link(b,c).`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("reach").Count(value.T("a", 2)) != 1 {
		t.Fatalf("reach: %v", e.Relation("reach"))
	}
	if _, err := e.Apply(delta(t, `+link(c,d).`)); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("reach").Has(value.T("a", 3)) || e.Relation("reach").Has(value.T("a", 2)) {
		t.Fatalf("reach after insert: %v", e.Relation("reach"))
	}
	if _, err := e.Apply(delta(t, `-link(a,b).`)); err != nil {
		t.Fatal(err)
	}
	if e.Relation("reach").Has(value.T("a", 3)) {
		t.Fatalf("reach after delete: %v", e.Relation("reach"))
	}
}

func TestMutualRecursionMaintenance(t *testing.T) {
	prog := rules(t, `
		even(X) :- zero(X).
		even(Y) :- odd(X), succ(X,Y).
		odd(Y)  :- even(X), succ(X,Y).
	`)
	e, err := New(prog, load(t, `zero(0). succ(0,1). succ(1,2). succ(2,3).`))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Relation("odd").Has(value.T(3)) {
		t.Fatal("odd(3) initially")
	}
	if _, err := e.Apply(delta(t, `-succ(1,2). +succ(3,4).`)); err != nil {
		t.Fatal(err)
	}
	// Chain is broken at 1→2: only even(0), odd(1) remain; 3,4 unreachable.
	if e.Relation("even").Has(value.T(2)) || e.Relation("odd").Has(value.T(3)) || e.Relation("even").Has(value.T(4)) {
		t.Fatalf("even=%v odd=%v", e.Relation("even"), e.Relation("odd"))
	}
	if !e.Relation("odd").Has(value.T(1)) {
		t.Fatal("odd(1) survives")
	}
	// Repair the chain.
	if _, err := e.Apply(delta(t, `+succ(1,2).`)); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("even").Has(value.T(4)) {
		t.Fatalf("even(4) after repair: %v", e.Relation("even"))
	}
}

func TestRejectsDeletingAbsentTuple(t *testing.T) {
	e, err := New(rules(t, tcProgram), load(t, `link(a,b).`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(delta(t, `-link(z,z).`)); err == nil {
		t.Fatal("deleting an absent base tuple must error")
	}
}

func TestBaseMultisetsCollapseToSets(t *testing.T) {
	e, err := New(rules(t, tcProgram), load(t, `link(a,b) * 3.`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("link").Count(value.T("a", "b")) != 1 {
		t.Fatal("DRed normalizes base relations to sets")
	}
	// Duplicate insertion of an existing tuple is a no-op.
	ch, err := e.Apply(delta(t, `+link(a,b).`))
	if err != nil {
		t.Fatal(err)
	}
	_, add := split(ch)
	if len(add) != 0 && add["tc"] != nil {
		t.Fatalf("no-op insert changed tc: %v", add["tc"])
	}
}

func TestAddRuleIncremental(t *testing.T) {
	// Start with direct links only; add the recursive rule — Section 7's
	// rule insertion.
	e, err := New(rules(t, `tc(X,Y) :- link(X,Y).`), load(t, `link(a,b). link(b,c). link(c,d).`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("tc").Len() != 3 {
		t.Fatal("initial tc = links")
	}
	rule, err := parser.ParseRules(`tc(X,Y) :- tc(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := e.AddRule(rule.Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	_, add := split(ch)
	if e.Relation("tc").Len() != 6 {
		t.Fatalf("tc after AddRule: %v", e.Relation("tc"))
	}
	if add["tc"].Len() != 3 {
		t.Fatalf("Add: %v", add["tc"])
	}
	// Maintenance keeps working after the definition change.
	if _, err := e.Apply(delta(t, `-link(b,c).`)); err != nil {
		t.Fatal(err)
	}
	if e.Relation("tc").Has(value.T("a", "d")) {
		t.Fatal("a⇝d gone after breaking the chain")
	}
}

func TestRemoveRuleIncremental(t *testing.T) {
	e, err := New(rules(t, `
		v(X,Y) :- link(X,Y).
		v(X,Y) :- hyperlink(X,Y).
	`), load(t, `link(a,b). hyperlink(a,b). hyperlink(c,d).`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("v").Len() != 2 {
		t.Fatalf("initial v: %v", e.Relation("v"))
	}
	ch, err := e.RemoveRule(1) // drop the hyperlink rule
	if err != nil {
		t.Fatal(err)
	}
	del, _ := split(ch)
	// (a,b) survives via link; (c,d) dies.
	if !e.Relation("v").Has(value.T("a", "b")) || e.Relation("v").Has(value.T("c", "d")) {
		t.Fatalf("v after RemoveRule: %v", e.Relation("v"))
	}
	if del["v"] == nil || !del["v"].Has(value.T("c", "d")) || del["v"].Has(value.T("a", "b")) {
		t.Fatalf("Del: %v", del["v"])
	}
	if len(e.Program().Rules) != 1 {
		t.Fatal("rule removed from program")
	}
}

func TestRemoveRecursiveRule(t *testing.T) {
	e, err := New(rules(t, tcProgram), load(t, `link(a,b). link(b,c). link(c,d).`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("tc").Len() != 6 {
		t.Fatal("initial tc")
	}
	if _, err := e.RemoveRule(1); err != nil { // drop the recursive rule
		t.Fatal(err)
	}
	if e.Relation("tc").Len() != 3 {
		t.Fatalf("tc after removing recursion: %v", e.Relation("tc"))
	}
}

func TestRemoveOnlyRuleOfPredicate(t *testing.T) {
	e, err := New(rules(t, `
		v(X) :- p(X).
		w(X) :- v(X), q(X).
	`), load(t, `p(a). q(a).`))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Relation("w").Has(value.T("a")) {
		t.Fatal("initial w(a)")
	}
	if _, err := e.RemoveRule(0); err != nil {
		t.Fatal(err)
	}
	if e.Relation("v").Len() != 0 {
		t.Fatalf("v must be empty: %v", e.Relation("v"))
	}
	if e.Relation("w").Len() != 0 {
		t.Fatalf("w must be empty: %v", e.Relation("w"))
	}
}

func TestAddRuleWithNewAggregate(t *testing.T) {
	e, err := New(rules(t, `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`), load(t, `link(a,b). link(b,c).`))
	if err != nil {
		t.Fatal(err)
	}
	rule, err := parser.ParseRules(`reach(X,N) :- groupby(tc(X,Y), [X], N = count(Y)).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddRule(rule.Rules[0]); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("reach").Has(value.T("a", 2)) {
		t.Fatalf("reach: %v", e.Relation("reach"))
	}
	// And the new aggregate is maintained afterwards.
	if _, err := e.Apply(delta(t, `+link(c,d).`)); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("reach").Has(value.T("a", 3)) {
		t.Fatalf("reach after insert: %v", e.Relation("reach"))
	}
}

func TestArithmeticHeadSlowPathRederivation(t *testing.T) {
	// Heads with expressions exercise the rederive slow path.
	prog := rules(t, `
		cost(X,Y,C)     :- link(X,Y,C).
		cost(X,Y,C1+C2) :- cost(X,Z,C1), link(Z,Y,C2).
	`)
	e, err := New(prog, load(t, `link(a,b,1). link(b,c,1). link(a,c,2).`))
	if err != nil {
		t.Fatal(err)
	}
	// cost(a,c,2) has two derivations (direct, and a→b→c).
	if !e.Relation("cost").Has(value.T("a", "c", 2)) {
		t.Fatalf("cost: %v", e.Relation("cost"))
	}
	// Delete the direct edge: (a,c,2) survives via the path.
	if _, err := e.Apply(delta(t, `-link(a,c,2).`)); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("cost").Has(value.T("a", "c", 2)) {
		t.Fatal("cost(a,c,2) must be rederived via a→b→c")
	}
	// Delete a→b: now it dies.
	if _, err := e.Apply(delta(t, `-link(a,b,1).`)); err != nil {
		t.Fatal(err)
	}
	if e.Relation("cost").Has(value.T("a", "c", 2)) {
		t.Fatal("cost(a,c,2) must be gone")
	}
}

func TestStatsShapeExample11(t *testing.T) {
	e, err := New(rules(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`),
		load(t, `link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(delta(t, `-link(a,b).`)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Overestimated != 2 || st.Rederived != 1 || st.Inserted != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAddRuleRejectsBasePredicateWithFacts(t *testing.T) {
	e, err := New(rules(t, `v(X) :- p(X).`), load(t, `p(a). q(b).`))
	if err != nil {
		t.Fatal(err)
	}
	// q holds stored base facts: redefining it as derived would orphan them.
	rule, err := parser.ParseRules(`q(X) :- p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddRule(rule.Rules[0]); err == nil {
		t.Fatal("turning a populated base relation into a view must be rejected")
	}
	// A fresh predicate is fine.
	rule2, err := parser.ParseRules(`w(X) :- p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddRule(rule2.Rules[0]); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("w").Has(value.T("a")) {
		t.Fatalf("w: %v", e.Relation("w"))
	}
}

// TestMixedProgramCountsItsNonrecursiveStrata maintains tc under a join
// and a GROUPBY with the algorithm chosen per stratum: after a deletion
// only tc's stratum overestimates and rederives — exactly as tc alone
// does — and the strata above it store the derivation counts a fresh
// materialization of the new base stores, not sets.
func TestMixedProgramCountsItsNonrecursiveStrata(t *testing.T) {
	const above = `
		pair(X,Y) :- tc(X,Z), tc(Z,Y).
		deg(X,C) :- groupby(tc(X,Y), [X], C = count(Y)).`
	const facts = `link(a,b). link(b,c). link(a,c). link(c,d). link(b,d). link(a,e). link(e,d).`
	prog := rules(t, tcProgram+above)
	e, err := NewWithConfig(prog, load(t, facts), Config{Algorithm: PerStratum})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := New(rules(t, tcProgram), load(t, facts))
	if err != nil {
		t.Fatal(err)
	}
	del := `-link(a,b).`
	if _, err := e.Apply(delta(t, del)); err != nil {
		t.Fatal(err)
	}
	if _, err := alone.Apply(delta(t, del)); err != nil {
		t.Fatal(err)
	}
	st, want := e.Stats(), alone.Stats()
	if st.Overestimated != want.Overestimated || st.Rederived != want.Rederived || st.DeltaRulesEvaluated == 0 {
		t.Fatalf("stats %+v: the strata above tc overestimate or rederive (tc alone: %+v), or run no delta rule", st, want)
	}
	after := load(t, facts)
	after.Get("link").Add(value.T("a", "b"), -1)
	ref, err := NewWithConfig(prog, after, Config{Algorithm: PerStratum})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"tc", "pair", "deg"} {
		if got, want := e.Relation(pred).String(), ref.Relation(pred).String(); got != want {
			t.Errorf("%s stores %s, a fresh materialization %s", pred, got, want)
		}
	}
	if e.Relation("pair").TotalCount() == int64(e.Relation("pair").Len()) {
		t.Errorf("pair holds no tuple with two derivations: %s", e.Relation("pair"))
	}
}

// A rule that reads a predicate the engine lacks reads it as empty and
// stores nothing for it: a relation made then, of unknown arity, would be
// published with its net missing from the version.
func TestReadOfAnAbsentRelationStoresNothing(t *testing.T) {
	for _, alg := range []Algorithm{PerStratum, DRed, Counting, Recompute} {
		e, err := NewWithConfig(rules(t, `p(X) :- a(X), b(X).`), load(t, `a(x).`), Config{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(delta(t, `+a(y).`)); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(e.Preds(), "b") {
			t.Fatalf("algorithm %d stores b after an apply: %v", alg, e.Preds())
		}
	}
}

// A rule edit keeps the group tables it does not touch: an added rule
// leaves every table in place, a removed one takes its own with it and
// moves those of the rules after it down one index. Both go on being
// maintained.
func TestRuleEditsKeepGroupTables(t *testing.T) {
	for _, alg := range []Algorithm{DRed, PerStratum} {
		e, err := NewWithConfig(rules(t, `
			cnt(X,N) :- groupby(a(X,Y), [X], N = count(Y)).
			tot(X,S) :- groupby(b(X,Y), [X], S = sum(Y)).`),
			load(t, `a(x,1). a(x,2). b(x,3). b(y,4).`), Config{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		tot := e.GroupRel(1, 0)
		if tot == nil {
			t.Fatal("no group table for tot after materialization")
		}
		big := rules(t, `big(X) :- tot(X,S), S > 3.`).Rules[0]
		if _, err := e.AddRule(big); err != nil {
			t.Fatal(err)
		}
		if e.GroupRel(1, 0) != tot || e.GroupRel(0, 0) == nil {
			t.Fatalf("algorithm %d: AddRule rebuilt or dropped a group table", alg)
		}
		if _, err := e.RemoveRule(0); err != nil {
			t.Fatal(err)
		}
		if e.GroupRel(0, 0) != tot || e.GroupRel(1, 0) != nil {
			t.Fatalf("algorithm %d: RemoveRule did not move tot's table to rule 0", alg)
		}
		if _, err := e.Apply(delta(t, `+b(y,5). -b(x,3). +a(x,3).`)); err != nil {
			t.Fatal(err)
		}
		for pred, want := range map[string]string{"tot": "{(y, 9)}", "big": "{(y)}", "cnt": "{}"} {
			if got := e.Relation(pred).String(); got != want {
				t.Errorf("algorithm %d: %s = %s, want %s", alg, pred, got, want)
			}
		}
	}
}

// Counting builds each Δ(head) in a working table the engine keeps and
// publishes one exact-size frozen copy of it. A bulk apply whose Δ(head)
// outgrows the head's net bound leaves no working array that large; a
// small one keeps its table for the next apply; a head the program loses
// takes its table with it.
func TestWorkingDeltaTableKeptWithinTheNetBound(t *testing.T) {
	e, err := NewWithConfig(rules(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`), load(t, `link(n0,n1).`),
		Config{Algorithm: Counting, Semantics: eval.Set})
	if err != nil {
		t.Fatal(err)
	}
	bulk := relation.New(2)
	for i := 1; i < 2000; i++ {
		bulk.Add(value.T(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)), 1)
	}
	if _, err := e.Apply(map[string]*relation.Relation{"link": bulk}); err != nil {
		t.Fatal(err)
	}
	d := e.CommittedDeltas()["hop"]
	if room := relation.Cells(nil, []*relation.Versioned{relation.NewVersioned(d)}); d.Len() != 1999 || !d.Frozen() || room != d.Len() {
		t.Fatalf("Δ(hop) of the bulk apply: %d rows, frozen %v, room for %d; want 1999, frozen, exact", d.Len(), d.Frozen(), room)
	}
	// Grown by doubling to 2 048 rows, past the bound of ¼ of hop's 1 999.
	if w := e.work["hop"]; w != nil {
		t.Fatalf("the bulk apply left its working table behind (%d rows, kept: %v)", w.Len(), e.Stored("hop").Keeps(w))
	}
	if _, err := e.Apply(delta(t, `+link(n2000,n2001).`)); err != nil {
		t.Fatal(err)
	}
	w := e.work["hop"]
	if w == nil || w == e.CommittedDeltas()["hop"] {
		t.Fatalf("a one-row apply kept no working table of its own: %v", w)
	}
	if _, err := e.Apply(delta(t, `-link(n2000,n2001).`)); err != nil {
		t.Fatal(err)
	}
	if e.work["hop"] != w {
		t.Fatal("the next small apply did not reuse the working table")
	}
	if _, err := e.RemoveRule(0); err != nil {
		t.Fatal(err)
	}
	if len(e.work) != 0 {
		t.Fatalf("working tables kept for heads the program lost: %v", e.work)
	}
}
