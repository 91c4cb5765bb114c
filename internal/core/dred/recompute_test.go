package dred

import (
	"testing"

	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// recomputeEngine materializes progSrc over facts, to be re-evaluated
// from scratch on every Apply.
func recomputeEngine(t *testing.T, progSrc, facts string, sem eval.Semantics) *Engine {
	t.Helper()
	e, err := NewWithConfig(rules(t, progSrc), load(t, facts), Config{Algorithm: Recompute, Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecomputeHop(t *testing.T) {
	e := recomputeEngine(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`,
		`link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).`, eval.Duplicate)
	if e.Relation("hop").Count(value.T("a", "c")) != 2 {
		t.Fatalf("hop: %v", e.Relation("hop"))
	}
	d := relation.New(2)
	d.Add(value.T("a", "b"), -1)
	ch, err := e.Apply(map[string]*relation.Relation{"link": d})
	if err != nil {
		t.Fatal(err)
	}
	if ch["hop"].Count(value.T("a", "c")) != -1 || ch["hop"].Count(value.T("a", "e")) != -1 {
		t.Fatalf("Δhop: %v", ch["hop"])
	}
	if e.Relation("hop").Count(value.T("a", "c")) != 1 {
		t.Fatalf("hop after: %v", e.Relation("hop"))
	}
}

func TestRecomputeRecursive(t *testing.T) {
	e := recomputeEngine(t, `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`, `link(a,b). link(b,c).`, eval.Set)
	if e.Relation("tc").Len() != 3 {
		t.Fatalf("tc: %v", e.Relation("tc"))
	}
	d := relation.New(2)
	d.Add(value.T("b", "c"), -1)
	ch, err := e.Apply(map[string]*relation.Relation{"link": d})
	if err != nil {
		t.Fatal(err)
	}
	if e.Relation("tc").Len() != 1 {
		t.Fatalf("tc after: %v", e.Relation("tc"))
	}
	if len(ch["tc"].Rows()) != 2 {
		t.Fatalf("Δtc: %v", ch["tc"])
	}
}

func TestRejectsOverDeletion(t *testing.T) {
	// Duplicate semantics: deleting more copies than stored errors.
	e := recomputeEngine(t, `v(X) :- p(X).`, `p(a).`, eval.Duplicate)
	d := relation.New(1)
	d.Add(value.T("a"), -2)
	if _, err := e.Apply(map[string]*relation.Relation{"p": d}); err == nil {
		t.Fatal("over-deletion must error under duplicate semantics")
	}
	// Set semantics: multiplicities collapse — deleting a present tuple
	// twice is one deletion, but deleting an absent tuple errors.
	es := recomputeEngine(t, `v(X) :- p(X).`, `p(a).`, eval.Set)
	if _, err := es.Apply(map[string]*relation.Relation{"p": d}); err != nil {
		t.Fatalf("set-semantics collapse: %v", err)
	}
	if es.Relation("v").Len() != 0 {
		t.Fatal("v empty after delete")
	}
	d2 := relation.New(1)
	d2.Add(value.T("zz"), -1)
	if _, err := es.Apply(map[string]*relation.Relation{"p": d2}); err == nil {
		t.Fatal("deleting an absent tuple must error under set semantics")
	}
}

func TestRejectsDerivedDelta(t *testing.T) {
	e := recomputeEngine(t, `v(X) :- p(X).`, `p(a).`, eval.Set)
	d := relation.New(1)
	d.Add(value.T("a"), 1)
	if _, err := e.Apply(map[string]*relation.Relation{"v": d}); err == nil {
		t.Fatal("derived delta must error")
	}
}

func TestDiffReportsExactChanges(t *testing.T) {
	e := recomputeEngine(t, `v(X) :- p(X), q(X).`, `p(a). p(b). q(a).`, eval.Set)
	d := relation.New(1)
	d.Add(value.T("b"), 1)
	ch, err := e.Apply(map[string]*relation.Relation{"q": d})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 1 || ch["v"].Count(value.T("b")) != 1 || ch["v"].Len() != 1 {
		t.Fatalf("Δv: %v", ch)
	}
	// Unchanged views report nothing.
	d2 := relation.New(1)
	d2.Add(value.T("zzz"), 1)
	ch, err = e.Apply(map[string]*relation.Relation{"p": d2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 0 {
		t.Fatalf("expected no view change: %v", ch)
	}
}
