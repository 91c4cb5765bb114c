package counting

import (
	"ivm/internal/core/dred"
	"math/rand"
	"testing"

	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/value"
	"ivm/internal/workload"
)

func recursiveEngine(t *testing.T, facts string) *dred.Engine {
	t.Helper()
	prog := rules(t, `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`)
	e, err := NewWithConfig(prog, load(t, facts), Config{
		Semantics:      eval.Duplicate,
		AllowRecursion: true,
		MaxIterations:  200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecursiveRejectedWithoutOptIn(t *testing.T) {
	prog := rules(t, `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`)
	if _, err := newEngine(prog, load(t, `link(a,b).`), eval.Duplicate); err != ErrRecursive {
		t.Fatalf("err = %v, want ErrRecursive", err)
	}
	// And set semantics + recursion is DRed's domain even with the opt-in.
	if _, err := NewWithConfig(prog, load(t, `link(a,b).`), Config{
		Semantics: eval.Set, AllowRecursion: true,
	}); err == nil {
		t.Fatal("set-semantics recursive counting must be rejected")
	}
}

func TestRecursivePathCountsMaterialize(t *testing.T) {
	// Diamond: two paths a⇝d.
	e := recursiveEngine(t, `link(a,b). link(a,c). link(b,d). link(c,d).`)
	if got := e.Relation("tc").Count(value.T("a", "d")); got != 2 {
		t.Fatalf("tc(a,d) = %d, want 2", got)
	}
}

func TestRecursiveMaintenanceInsert(t *testing.T) {
	e := recursiveEngine(t, `link(a,b). link(b,d).`)
	if e.Relation("tc").Count(value.T("a", "d")) != 1 {
		t.Fatal("initial")
	}
	// Add a second path a→c→d: tc(a,d) gains a derivation.
	ch, err := e.Apply(delta(t, `+link(a,c). +link(c,d).`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("tc").Count(value.T("a", "d")) != 2 {
		t.Fatalf("tc(a,d) = %d, want 2: %v", e.Relation("tc").Count(value.T("a", "d")), e.Relation("tc"))
	}
	if ch["tc"].Count(value.T("a", "d")) != 1 {
		t.Fatalf("Δtc(a,d) = %v", ch["tc"])
	}
}

func TestRecursiveMaintenanceDelete(t *testing.T) {
	e := recursiveEngine(t, `link(a,b). link(a,c). link(b,d). link(c,d). link(d,e).`)
	// Two paths a⇝d, hence two a⇝e.
	if e.Relation("tc").Count(value.T("a", "e")) != 2 {
		t.Fatalf("initial tc(a,e): %v", e.Relation("tc"))
	}
	if _, err := e.Apply(delta(t, `-link(a,b).`)); err != nil {
		t.Fatal(err)
	}
	tc := e.Relation("tc")
	if tc.Count(value.T("a", "e")) != 1 || tc.Count(value.T("a", "d")) != 1 {
		t.Fatalf("after delete: %v", tc)
	}
	if tc.Has(value.T("a", "b")) {
		t.Fatal("a⇝b must be gone")
	}
	// b's own reach is untouched.
	if tc.Count(value.T("b", "e")) != 1 {
		t.Fatalf("b⇝e: %v", tc)
	}
}

func TestRecursiveMaintenanceMatchesFromScratch(t *testing.T) {
	// Randomized cross-check on DAGs: maintained counts equal a fresh
	// materialization's counts after every batch.
	rng := rand.New(rand.NewSource(19))
	link := workload.LayeredDAG(rng, 5, 4, 2)
	base := eval.NewDB()
	base.Put("link", link)
	prog := rules(t, `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`)
	cfg := Config{Semantics: eval.Duplicate, AllowRecursion: true, MaxIterations: 500}
	e, err := NewWithConfig(prog, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 15; round++ {
		cur := e.Relation("link")
		d := relation.New(2)
		// Delete one random edge and insert one forward edge (keeping the
		// graph acyclic: only layer i → layer i+1 edges exist, and we
		// re-insert a previously deleted-style edge between layers).
		del := workload.SampleDeletes(rand.New(rand.NewSource(int64(round))), cur, 1)
		d.MergeDelta(del)
		if _, err := e.Apply(map[string]*relation.Relation{"link": d}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Fresh materialization over the updated base.
		fresh := eval.NewDB()
		fresh.Put("link", e.Relation("link").Clone())
		oracle, err := NewWithConfig(prog, fresh, cfg)
		if err != nil {
			t.Fatalf("round %d oracle: %v", round, err)
		}
		if !relation.Equal(e.Relation("tc"), oracle.Relation("tc")) {
			t.Fatalf("round %d: counts diverge\nmaintained: %v\nfresh:      %v",
				round, e.Relation("tc"), oracle.Relation("tc"))
		}
	}
}

func TestRecursiveDivergenceOnCycleCreation(t *testing.T) {
	e := recursiveEngine(t, `link(a,b). link(b,c).`)
	// Closing the cycle c→a makes every tc count infinite.
	_, err := e.Apply(delta(t, `+link(c,a).`))
	if _, ok := err.(*dred.ErrDiverged); !ok {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	// The engine state is unchanged and still usable.
	if e.Relation("link").Has(value.T("c", "a")) {
		t.Fatal("failed Apply must not commit the base delta")
	}
	if e.Relation("tc").Count(value.T("a", "c")) != 1 {
		t.Fatalf("tc must be unchanged: %v", e.Relation("tc"))
	}
	ch, err := e.Apply(delta(t, `+link(c,d).`))
	if err != nil {
		t.Fatalf("engine must stay usable: %v", err)
	}
	if ch["tc"].Count(value.T("a", "d")) != 1 {
		t.Fatalf("Δtc after recovery: %v", ch["tc"])
	}
}

func TestRecursiveDivergenceAtMaterialization(t *testing.T) {
	prog := rules(t, `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`)
	_, err := NewWithConfig(prog, load(t, `link(a,b). link(b,a).`), Config{
		Semantics: eval.Duplicate, AllowRecursion: true, MaxIterations: 30,
	})
	if err == nil {
		t.Fatal("cyclic data must fail materialization under recursive counting")
	}
}

func TestRecursiveWithAggregateAbove(t *testing.T) {
	prog2 := rules(t, `
		tc(X,Y)     :- link(X,Y).
		tc(X,Y)     :- tc(X,Z), link(Z,Y).
		nreach(X,N) :- groupby(tc(X,Y), [X], N = count(Y)).
	`)
	e, err := NewWithConfig(prog2, load(t, `link(a,b). link(b,c).`), Config{
		Semantics: eval.Duplicate, AllowRecursion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// COUNT under duplicate semantics counts derivations: a reaches b (1
	// path) and c (1 path) → 2.
	if !e.Relation("nreach").Has(value.T("a", 2)) {
		t.Fatalf("nreach: %v", e.Relation("nreach"))
	}
	if _, err := e.Apply(delta(t, `+link(c,d).`)); err != nil {
		t.Fatal(err)
	}
	if !e.Relation("nreach").Has(value.T("a", 3)) {
		t.Fatalf("nreach after: %v", e.Relation("nreach"))
	}
}
