package ivm_test

// Edge-case integration tests across the public API: conditions in
// maintained views, deep strata chains, zero-arity predicates, empty
// bases, self-joins, multi-rule unions, and cross-semantics behaviors.

import (
	"fmt"
	"math"
	"testing"

	"ivm"
)

func mustViews(t *testing.T, facts, program string, opts ...ivm.Option) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	if facts != "" {
		db.MustLoad(facts)
	}
	v, err := db.Materialize(program, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func apply(t *testing.T, v *ivm.Views, script string) *ivm.ChangeSet {
	t.Helper()
	ch, err := v.ApplyScript(script)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestConditionsInMaintainedView(t *testing.T) {
	v := mustViews(t, `p(a, 1). p(b, 7).`,
		`big(X) :- p(X, C), C > 5.`,
		ivm.WithSemantics(ivm.DuplicateSemantics))
	if v.Has("big", "a") || !v.Has("big", "b") {
		t.Fatalf("big: %v", v.Rows("big"))
	}
	// Crossing the threshold via delete+insert (an update).
	apply(t, v, `-p(a, 1). +p(a, 9).`)
	if !v.Has("big", "a") {
		t.Fatalf("big after update: %v", v.Rows("big"))
	}
	apply(t, v, `-p(b, 7).`)
	if v.Has("big", "b") {
		t.Fatal("big(b) must retract")
	}
}

func TestArithmeticConditionInterplay(t *testing.T) {
	v := mustViews(t, `edge(x, y, 3). edge(y, z, 4).`,
		`short2(A, C, W1+W2) :- edge(A, B, W1), edge(B, C, W2), W1 + W2 < 10.`,
		ivm.WithSemantics(ivm.DuplicateSemantics))
	if !v.Has("short2", "x", "z", 7) {
		t.Fatalf("short2: %v", v.Rows("short2"))
	}
	// Make the path too long: the condition must filter during
	// maintenance, not only at build time.
	apply(t, v, `-edge(y, z, 4). +edge(y, z, 8).`)
	if len(v.Rows("short2")) != 0 {
		t.Fatalf("short2 after: %v", v.Rows("short2"))
	}
}

func TestDeepStrataChainMaintenance(t *testing.T) {
	v := mustViews(t, `base(k).`, `
		v1(X) :- base(X).
		v2(X) :- v1(X).
		v3(X) :- v2(X).
		v4(X) :- v3(X).
		v5(X) :- v4(X).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if !v.Has("v5", "k") {
		t.Fatal("v5(k)")
	}
	ch := apply(t, v, `-base(k).`)
	if len(ch.Preds()) != 5 {
		t.Fatalf("all five strata must change: %v", ch.Preds())
	}
	if v.Has("v5", "k") {
		t.Fatal("v5 must drain")
	}
	apply(t, v, `+base(k2).`)
	if !v.Has("v5", "k2") {
		t.Fatal("v5 must refill")
	}
}

func TestZeroArityPredicates(t *testing.T) {
	v := mustViews(t, `trigger().`, `
		alarm() :- trigger(), sensor(X).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if v.Has("alarm") {
		t.Fatal("no sensor yet")
	}
	apply(t, v, `+sensor(s1).`)
	if !v.Has("alarm") {
		t.Fatalf("alarm: %v", v.Rows("alarm"))
	}
	// Two sensors → two derivations of the zero-arity tuple.
	apply(t, v, `+sensor(s2).`)
	if v.Count("alarm") != 2 {
		t.Fatalf("alarm count: %v", v.Rows("alarm"))
	}
	apply(t, v, `-trigger().`)
	if v.Has("alarm") {
		t.Fatal("alarm must clear")
	}
}

func TestEmptyBaseMaterialization(t *testing.T) {
	v := mustViews(t, "", `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if len(v.Rows("hop")) != 0 {
		t.Fatal("empty view")
	}
	apply(t, v, `+link(a,b). +link(b,c).`)
	if !v.Has("hop", "a", "c") {
		t.Fatal("hop after first inserts")
	}
}

func TestSelfJoinInsertBatchExactCounts(t *testing.T) {
	// Inserting both halves of a self-join in one batch must count the
	// (Δ ⋈ Δ) derivations exactly once (the classic delta-rule trap).
	v := mustViews(t, "", `hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithSemantics(ivm.DuplicateSemantics))
	apply(t, v, `+link(a,b). +link(b,c).`)
	if v.Count("hop", "a", "c") != 1 {
		t.Fatalf("hop(a,c) count: %d", v.Count("hop", "a", "c"))
	}
	// And deleting both in one batch returns to zero, not negative.
	apply(t, v, `-link(a,b). -link(b,c).`)
	if len(v.Rows("hop")) != 0 {
		t.Fatalf("hop: %v", v.Rows("hop"))
	}
}

func TestMultiRuleUnionCounts(t *testing.T) {
	v := mustViews(t, `p(a). q(a). q(b).`, `
		u(X) :- p(X).
		u(X) :- q(X).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if v.Count("u", "a") != 2 || v.Count("u", "b") != 1 {
		t.Fatalf("u: %v", v.Rows("u"))
	}
	// Deleting one branch leaves the other derivation.
	apply(t, v, `-p(a).`)
	if v.Count("u", "a") != 1 {
		t.Fatalf("u(a): %d", v.Count("u", "a"))
	}
	// Under set semantics the same deletion changes nothing visible.
	vs := mustViews(t, `p(a). q(a). q(b).`, `
		u(X) :- p(X).
		u(X) :- q(X).
	`, ivm.WithSemantics(ivm.SetSemantics))
	ch := apply(t, vs, `-p(a).`)
	if len(ch.Delta("u")) != 0 {
		t.Fatalf("set-semantics Δu: %v", ch.Delta("u"))
	}
	if !vs.Has("u", "a") {
		t.Fatal("u(a) survives")
	}
}

func TestRepeatedVariablesInView(t *testing.T) {
	v := mustViews(t, `e(a, a). e(a, b). e(b, b).`,
		`loop(X) :- e(X, X).`)
	if len(v.Rows("loop")) != 2 {
		t.Fatalf("loop: %v", v.Rows("loop"))
	}
	apply(t, v, `-e(a, a).`)
	if v.Has("loop", "a") || !v.Has("loop", "b") {
		t.Fatalf("loop after: %v", v.Rows("loop"))
	}
}

func TestConstantsInRules(t *testing.T) {
	v := mustViews(t, `link(hub, a). link(hub, b). link(x, y).`,
		`fromhub(Y) :- link(hub, Y).`)
	if len(v.Rows("fromhub")) != 2 {
		t.Fatalf("fromhub: %v", v.Rows("fromhub"))
	}
	ch := apply(t, v, `+link(x, z).`)
	if !ch.Empty() {
		t.Fatalf("irrelevant insert must not change the view: %v", ch)
	}
	apply(t, v, `+link(hub, c).`)
	if !v.Has("fromhub", "c") {
		t.Fatal("fromhub(c)")
	}
}

func TestAggregateEmptyGroupAppearsAndDisappears(t *testing.T) {
	v := mustViews(t, "", `
		m(S, M) :- groupby(u(S, C), [S], M = max(C)).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if len(v.Rows("m")) != 0 {
		t.Fatal("no groups yet")
	}
	apply(t, v, `+u(a, 5).`)
	if !v.Has("m", "a", 5) {
		t.Fatalf("m: %v", v.Rows("m"))
	}
	apply(t, v, `-u(a, 5).`)
	if len(v.Rows("m")) != 0 {
		t.Fatalf("group must vanish: %v", v.Rows("m"))
	}
}

func TestAvgAndVarianceMaintained(t *testing.T) {
	v := mustViews(t, `s(g, 2). s(g, 4). s(g, 6).`, `
		a(G, M) :- groupby(s(G, X), [G], M = avg(X)).
		vr(G, M) :- groupby(s(G, X), [G], M = variance(X)).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if !v.Has("a", "g", 4.0) {
		t.Fatalf("avg: %v", v.Rows("a"))
	}
	apply(t, v, `-s(g, 6).`)
	if !v.Has("a", "g", 3.0) || !v.Has("vr", "g", 1.0) {
		t.Fatalf("after delete: avg=%v var=%v", v.Rows("a"), v.Rows("vr"))
	}
}

func TestGroupByEmptyGroupingVars(t *testing.T) {
	// Global aggregate: groupby with [] yields a single tuple.
	v := mustViews(t, `sale(1, 10). sale(2, 30).`, `
		total(N) :- groupby(sale(I, P), [], N = sum(P)).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if !v.Has("total", 40) {
		t.Fatalf("total: %v", v.Rows("total"))
	}
	apply(t, v, `+sale(3, 5).`)
	if !v.Has("total", 45) || v.Has("total", 40) {
		t.Fatalf("total after: %v", v.Rows("total"))
	}
	apply(t, v, `-sale(1, 10). -sale(2, 30). -sale(3, 5).`)
	if len(v.Rows("total")) != 0 {
		t.Fatalf("empty total: %v", v.Rows("total"))
	}
}

func TestNegationRequiresBoundVars(t *testing.T) {
	db := ivm.NewDatabase()
	_, err := db.Materialize(`
		spend(C, N) :- groupby(order(I, C, A), [C], N = sum(A)).
		quiet(C)    :- customer(C), !spend(C, N2).
	`)
	if err == nil {
		t.Fatal("unsafe negation must be rejected")
	}
}

func TestNegatedAggregateViewSafe(t *testing.T) {
	// Safe version: check absence of a specific aggregate tuple.
	v := mustViews(t, `order(1, acme, 10). customer(acme). customer(zen).`, `
		spend(C, N)  :- groupby(order(I, C, A), [C], N = sum(A)).
		nospend(C)   :- customer(C), !spend(C, 10).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if v.Has("nospend", "acme") || !v.Has("nospend", "zen") {
		t.Fatalf("nospend: %v", v.Rows("nospend"))
	}
	apply(t, v, `+order(2, acme, 5).`) // spend(acme) becomes 15 ≠ 10
	if !v.Has("nospend", "acme") {
		t.Fatalf("nospend after: %v", v.Rows("nospend"))
	}
}

func TestDuplicateBaseFactsUnderDuplicateSemantics(t *testing.T) {
	v := mustViews(t, `p(a) * 3.`, `v(X) :- p(X).`,
		ivm.WithSemantics(ivm.DuplicateSemantics))
	if v.Count("v", "a") != 3 {
		t.Fatalf("v(a): %d", v.Count("v", "a"))
	}
	apply(t, v, `-p(a).`)
	if v.Count("v", "a") != 2 {
		t.Fatalf("v(a) after one delete: %d", v.Count("v", "a"))
	}
	// Deleting more copies than stored errors.
	if _, err := v.ApplyScript(`-p(a) * 5.`); err == nil {
		t.Fatal("over-deletion must error")
	}
}

func TestDuplicateBaseFactsUnderSetSemantics(t *testing.T) {
	v := mustViews(t, `p(a) * 3.`, `v(X) :- p(X).`,
		ivm.WithSemantics(ivm.SetSemantics))
	// Multiplicities collapse: one deletion removes the tuple.
	apply(t, v, `-p(a).`)
	if v.Has("v", "a") {
		t.Fatalf("v: %v", v.Rows("v"))
	}
}

func TestDRedConditionsAndArithmetic(t *testing.T) {
	v := mustViews(t, `edge(a, b, 2). edge(b, c, 3). edge(a, c, 9).`, `
		path(X, Y, C)    :- edge(X, Y, C).
		path(X, Y, C1+C2) :- path(X, Z, C1), edge(Z, Y, C2), C1 + C2 < 100.
	`, ivm.WithStrategy(ivm.DRed))
	if !v.Has("path", "a", "c", 5) || !v.Has("path", "a", "c", 9) {
		t.Fatalf("path: %v", v.Rows("path"))
	}
	apply(t, v, `-edge(a, b, 2).`)
	if v.Has("path", "a", "c", 5) || !v.Has("path", "a", "c", 9) {
		t.Fatalf("path after: %v", v.Rows("path"))
	}
}

func TestHiddenPredsDoNotLeakInSQLChangeSets(t *testing.T) {
	db := ivm.NewDatabase()
	v, err := db.MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a','b');
		CREATE VIEW deg(s, n) AS SELECT s, COUNT(*) AS n FROM link GROUP BY s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.Apply(ivm.NewUpdate().Insert("link", "a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range ch.Preds() {
		if pred != "deg" {
			t.Fatalf("internal predicate leaked: %v", ch.Preds())
		}
	}
}

func TestArityMismatchesAreErrorsNotPanics(t *testing.T) {
	// Within one update.
	u := ivm.NewUpdate().Insert("p", 1).Insert("p", 1, 2)
	if u.Err() == nil {
		t.Fatal("mixed arities in an update must record an error")
	}
	v := mustViews(t, `p(a).`, `q(X) :- p(X).`)
	if _, err := v.Apply(u); err == nil {
		t.Fatal("Apply must surface the update construction error")
	}
	// Against the stored relation, for every strategy.
	for _, s := range []ivm.Strategy{ivm.Counting, ivm.DRed, ivm.Recompute} {
		v := mustViews(t, `p(a).`, `q(X) :- p(X).`, ivm.WithStrategy(s))
		bad := ivm.NewUpdate().Insert("p", 1, 2)
		if _, err := v.Apply(bad); err == nil {
			t.Fatalf("%v: wrong-arity delta must error", s)
		}
		// The engine stays usable.
		if _, err := v.Apply(ivm.NewUpdate().Insert("p", "b")); err != nil {
			t.Fatalf("%v: engine unusable after arity error: %v", s, err)
		}
	}
}

// Relations key a float by its bits, so a join must match by that identity
// too, whichever access path the planner picks. At f9e135c a scan compared
// with float ==: the ±0 join found no p until the unrelated rule r built an
// index on b's column 0, which the planner reused for p, leaving Y to the
// scan's compare; NaN went the other way; and c(0.0, -0.0) matched c(X, X).
// Every strategy must answer as a key-identity join would, materialising
// the facts or maintaining them in, and must equal recompute; so must a
// Query of the rule's body.
func TestJoinEqualityIsKeyIdentity(t *testing.T) {
	const join = `p(X) :- a(X, Y), b(X, Y, Z).`
	const withIndex = "r(X) :- c(X), b(X, W, V).\n" + join
	negZero, nan := math.Copysign(0, -1), math.NaN()
	zeros := [][]any{{"a", 1, 0.0}, {"b", 1, negZero, 5}, {"c", 1}}
	nans := [][]any{{"a", 1, nan}, {"b", 1, nan, 5}, {"c", 1}}
	for _, tc := range []struct {
		name, program, pred, query string
		facts                      [][]any
		want                       int
	}{
		{"±0 across literals", join, "p", "", zeros, 0},
		{"±0 across literals, subset index", withIndex, "p", "", zeros, 0},
		{"±0 within a literal", `q(X) :- c(X, X).`, "q", "c(X, X)", [][]any{{"c", 0.0, negZero}}, 0},
		{"NaN across literals", join, "p", "", nans, 1},
		{"NaN across literals, subset index", withIndex, "p", "", nans, 1},
		{"NaN within a literal", `q(X) :- c(X, X).`, "q", "c(X, X)", [][]any{{"c", nan, nan}}, 1},
	} {
		for _, s := range []ivm.Strategy{ivm.Counting, ivm.DRed, ivm.Recompute} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, s), func(t *testing.T) {
				db, u := ivm.NewDatabase(), ivm.NewUpdate()
				for _, f := range tc.facts {
					db.Insert(f[0].(string), f[1:]...)
					u.Insert(f[0].(string), f[1:]...)
				}
				views := map[string]*ivm.Views{}
				var err error
				if views["materialised"], err = db.Materialize(tc.program, ivm.WithStrategy(s)); err != nil {
					t.Fatal(err)
				}
				if views["recomputed"], err = db.Materialize(tc.program, ivm.WithStrategy(ivm.Recompute)); err != nil {
					t.Fatal(err)
				}
				if views["maintained"], err = ivm.NewDatabase().Materialize(tc.program, ivm.WithStrategy(s)); err != nil {
					t.Fatal(err)
				}
				if _, err := views["maintained"].Apply(u); err != nil {
					t.Fatal(err)
				}
				for what, v := range views {
					got := v.Rows(tc.pred)
					if len(got) != tc.want {
						t.Errorf("%s: %s = %v, want %d rows", what, tc.pred, got, tc.want)
					}
					if tc.query == "" {
						continue
					}
					res, err := v.Query(tc.query)
					if err != nil {
						t.Fatal(err)
					}
					same := len(res) == len(got)
					for i := 0; same && i < len(res); i++ {
						same = res[i].Bindings["X"] == got[i].Tuple[0]
					}
					if !same {
						t.Errorf("%s: Query(%s) = %v, want the rows of %s: %v", what, tc.query, res, tc.pred, got)
					}
				}
			})
		}
	}
}
