package eval_test

// Views are materialized by the maintenance engine, as maintenance from ∅
// (internal/core/dred): these tests evaluate whole programs through it,
// each stratum by the algorithm that keeps it.

import (
	"errors"
	"math/rand"
	"testing"

	"ivm/internal/core/dred"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/workload"
)

// materialize builds src's views over facts with cfg.
func materialize(t testing.TB, src, facts string, cfg dred.Config) *dred.Engine {
	t.Helper()
	e, err := newEngine(t, src, eval.LoadDB(t, facts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newEngine(t testing.TB, src string, db *eval.DB, cfg dred.Config) (*dred.Engine, error) {
	t.Helper()
	prog, err := parser.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return dred.NewWithConfig(prog, db, cfg)
}

const (
	triHop = `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).`
	triHopFacts = `link(a,b). link(a,d). link(d,c). link(b,c). link(c,h). link(f,g).`
	tc          = `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).`
)

func TestEvaluateNonrecursiveDuplicate(t *testing.T) {
	e := materialize(t, triHop, triHopFacts, dred.Config{Algorithm: dred.PerStratum, Semantics: eval.Duplicate})
	eval.WantCounts(t, e.Relation("hop"), map[string]int64{"a,c": 2, "d,h": 1, "b,h": 1})
	eval.WantCounts(t, e.Relation("tri_hop"), map[string]int64{"a,h": 2})
}

func TestEvaluateSetSemanticsPerStratumCounts(t *testing.T) {
	// Section 5.1: under set semantics, a stratum-2 predicate counts
	// derivations treating stratum-1 tuples as count 1.
	e := materialize(t, triHop, triHopFacts, dred.Config{Algorithm: dred.PerStratum})
	// hop(a,c) still has 2 derivations within its stratum...
	eval.WantCounts(t, e.Relation("hop"), map[string]int64{"a,c": 2, "d,h": 1, "b,h": 1})
	// ...but tri_hop(a,h) counts hop(a,c) once.
	eval.WantCounts(t, e.Relation("tri_hop"), map[string]int64{"a,h": 1})
}

func TestEvaluateRecursiveTransitiveClosure(t *testing.T) {
	e := materialize(t, tc, `link(a,b). link(b,c). link(c,d).`, dred.Config{Algorithm: dred.PerStratum})
	eval.WantCounts(t, e.Relation("tc"), map[string]int64{
		"a,b": 1, "a,c": 1, "a,d": 1, "b,c": 1, "b,d": 1, "c,d": 1,
	})
}

func TestEvaluateRecursiveCycle(t *testing.T) {
	e := materialize(t, tc, `link(a,b). link(b,a).`, dred.Config{Algorithm: dred.PerStratum})
	eval.WantCounts(t, e.Relation("tc"), map[string]int64{
		"a,b": 1, "b,a": 1, "a,a": 1, "b,b": 1,
	})
}

func TestEvaluateMutualRecursion(t *testing.T) {
	e := materialize(t, `
		even(X) :- zero(X).
		even(Y) :- odd(X), succ(X,Y).
		odd(Y)  :- even(X), succ(X,Y).
	`, `zero(0). succ(0,1). succ(1,2). succ(2,3). succ(3,4).`, dred.Config{Algorithm: dred.PerStratum})
	eval.WantCounts(t, e.Relation("even"), map[string]int64{"0": 1, "2": 1, "4": 1})
	eval.WantCounts(t, e.Relation("odd"), map[string]int64{"1": 1, "3": 1})
}

// The engine refuses duplicate semantics on a recursive program under
// every algorithm: its counts may be infinite (Section 8).
func TestEvaluateRecursiveDuplicateRejected(t *testing.T) {
	for _, alg := range []dred.Algorithm{dred.PerStratum, dred.DRed, dred.Counting, dred.Recompute} {
		_, err := newEngine(t, tc, eval.LoadDB(t, `link(a,b).`), dred.Config{Algorithm: alg, Semantics: eval.Duplicate})
		if err == nil {
			t.Fatalf("algorithm %d materialized a recursive program under duplicate semantics", alg)
		}
		if alg == dred.Counting && !errors.Is(err, dred.ErrRecursive) {
			t.Fatalf("forced counting: err = %v, want ErrRecursive", err)
		}
	}
}

func TestEvaluateNegationAboveRecursion(t *testing.T) {
	e := materialize(t, tc+`
		unreach(X,Y) :- node(X), node(Y), !tc(X,Y).
	`, `link(a,b). node(a). node(b).`, dred.Config{Algorithm: dred.PerStratum})
	eval.WantCounts(t, e.Relation("unreach"), map[string]int64{
		"a,a": 1, "b,a": 1, "b,b": 1,
	})
}

// Forced DRed stores every derived tuple once, where counting stores its
// derivations.
func TestTrackCountsOffCollapsesToSets(t *testing.T) {
	const prog, facts = `hop(X,Y) :- link(X,Z), link(Z,Y).`, `link(a,b). link(a,d). link(d,c). link(b,c).`
	eval.WantCounts(t, materialize(t, prog, facts, dred.Config{Algorithm: dred.Counting}).Relation("hop"), map[string]int64{"a,c": 2})
	eval.WantCounts(t, materialize(t, prog, facts, dred.Config{Algorithm: dred.DRed}).Relation("hop"), map[string]int64{"a,c": 1})
}

func TestEvaluateWithAggregate(t *testing.T) {
	e := materialize(t, `
		m(S, M)   :- groupby(u(S, C), [S], M = sum(C)).
		big(S)    :- m(S, M), M > 10.
	`, `u(a, 5). u(a, 7). u(b, 2).`, dred.Config{Algorithm: dred.PerStratum})
	eval.WantCounts(t, e.Relation("m"), map[string]int64{"a,12": 1, "b,2": 1})
	eval.WantCounts(t, e.Relation("big"), map[string]int64{"a": 1})
	if e.GroupRel(0, 0) == nil {
		t.Fatal("no group table for m's GROUPBY after materialization")
	}
}

func BenchmarkSemiNaiveTC(b *testing.B) {
	b.ReportAllocs()
	prog, err := parser.ParseRules(tc)
	if err != nil {
		b.Fatal(err)
	}
	link := workload.LayeredDAG(rand.New(rand.NewSource(2)), 10, 6, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := eval.NewDB()
		db.Put("link", link)
		if _, err := dred.NewWithConfig(prog, db, dred.Config{Algorithm: dred.PerStratum}); err != nil {
			b.Fatal(err)
		}
	}
}
