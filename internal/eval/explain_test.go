package eval

import (
	"testing"

	"ivm/internal/relation"
	"ivm/internal/value"
)

func TestExplainEnumeratesDerivations(t *testing.T) {
	prog, _ := parseProgram(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	link := relation.New(2)
	link.Add(value.T("a", "b"), 1)
	link.Add(value.T("b", "c"), 1)
	link.Add(value.T("a", "d"), 1)
	link.Add(value.T("d", "c"), 1)
	srcs := []Source{{Rel: link}, {Rel: link}}

	ds, err := Explain(prog.Rules[0], srcs, value.T("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("derivations: %v", ds)
	}
	for _, d := range ds {
		if len(d) != 2 || d[0].Pred != "link" || d[1].Pred != "link" {
			t.Fatalf("subgoals: %v", d)
		}
		// The chain must connect a → mid → c.
		if d[0].Tuple[0] != value.NewString("a") || d[1].Tuple[1] != value.NewString("c") {
			t.Fatalf("chain: %v", d)
		}
		if d[0].Tuple[1] != d[1].Tuple[0] {
			t.Fatalf("mid mismatch: %v", d)
		}
	}

	// Head mismatch: no derivations, no error.
	ds, err = Explain(prog.Rules[0], srcs, value.T("q", "q"))
	if err != nil || len(ds) != 0 {
		t.Fatalf("absent: %v %v", ds, err)
	}
	// Arity mismatch is a miss, not an error.
	ds, err = Explain(prog.Rules[0], srcs, value.T("a"))
	if err != nil || ds != nil {
		t.Fatalf("arity: %v %v", ds, err)
	}
}

func TestExplainMultiplicities(t *testing.T) {
	prog, _ := parseProgram(t, `v(X) :- p(X).`)
	p := relation.New(1)
	p.Add(value.T("a"), 3)
	ds, err := Explain(prog.Rules[0], []Source{{Rel: p}}, value.T("a"))
	if err != nil {
		t.Fatal(err)
	}
	// One instantiation whose subgoal carries multiplicity 3: the caller
	// multiplies counts to recover count(v(a)) = 3.
	if len(ds) != 1 || ds[0][0].Count != 3 {
		t.Fatalf("multiplicity: %v", ds)
	}
}

func TestExplainExpressionHead(t *testing.T) {
	prog, _ := parseProgram(t, `sum(X, A+B) :- p(X, A, B).`)
	p := relation.New(3)
	p.Add(value.T("k", 2, 3), 1)
	p.Add(value.T("k", 1, 4), 1)
	p.Add(value.T("k", 9, 9), 1)
	ds, err := Explain(prog.Rules[0], []Source{{Rel: p}}, value.T("k", 5))
	if err != nil {
		t.Fatal(err)
	}
	// Two rows sum to 5.
	if len(ds) != 2 {
		t.Fatalf("expression head: %v", ds)
	}
}

func TestSourcesAtBuildsAndCachesGroupTables(t *testing.T) {
	prog, _ := parseProgram(t, `m(S,M) :- groupby(u(S,C), [S], M = min(C)).`)
	db := loadDB(t, `u(a, 5). u(a, 3).`)
	gts := make(map[RuleLit]*GroupTable)
	srcs, err := SourcesAt(prog.Rules[0], 0, db.Reader, Duplicate, gts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gts) != 1 {
		t.Fatalf("group tables: %d", len(gts))
	}
	ds, err := Explain(prog.Rules[0], srcs, value.T("a", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || !ds[0][0].Aggregate {
		t.Fatalf("aggregate derivation: %v", ds)
	}
	// Second call reuses the cached table.
	if _, err := SourcesAt(prog.Rules[0], 0, db.Reader, Duplicate, gts); err != nil {
		t.Fatal(err)
	}
	if len(gts) != 1 {
		t.Fatal("cache must be reused")
	}
}
