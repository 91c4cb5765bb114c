package eval

import (
	"slices"
	"testing"

	"ivm/internal/datalog"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/strata"
	"ivm/internal/value"
)

func parseProgram(t testing.TB, src string) (*datalog.Program, *strata.Stratification) {
	t.Helper()
	prog, err := parser.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := datalog.Validate(prog); err != nil {
		t.Fatal(err)
	}
	st, err := strata.Compute(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, st
}

func loadDB(t testing.TB, src string) *DB {
	t.Helper()
	facts, err := parser.ParseDelta(src)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	for _, f := range facts {
		db.Ensure(f.Pred, len(f.Tuple)).Add(f.Tuple, f.Count)
	}
	return db
}

func counts(r *relation.Relation) map[string]int64 {
	out := make(map[string]int64)
	r.Each(func(row relation.Row) {
		key := ""
		for i, v := range row.Tuple {
			if i > 0 {
				key += ","
			}
			key += v.String()
		}
		out[key] = row.Count
	})
	return out
}

func wantCounts(t *testing.T, r *relation.Relation, want map[string]int64) {
	t.Helper()
	got := counts(r)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("tuple %s: count %d, want %d (full %v)", k, got[k], c, got)
		}
	}
}

func TestEvalRuleCountsMultiply(t *testing.T) {
	prog, _ := parseProgram(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	link := relation.New(2)
	link.Add(value.T("a", "b"), 2)
	link.Add(value.T("b", "c"), 3)
	out := relation.New(2)
	err := EvalRule(prog.Rules[0], []Source{{Rel: link}, {Rel: link}}, -1, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"a,c": 6})
}

func TestEvalRuleRepeatedVariables(t *testing.T) {
	prog, _ := parseProgram(t, `loop(X) :- link(X,X).`)
	link := relation.New(2)
	link.Add(value.T("a", "a"), 1)
	link.Add(value.T("a", "b"), 1)
	out := relation.New(1)
	if err := EvalRule(prog.Rules[0], []Source{{Rel: link}}, -1, out, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"a": 1})
}

func TestEvalRuleConstantsInBody(t *testing.T) {
	prog, _ := parseProgram(t, `fromA(Y) :- link(a, Y).`)
	link := relation.New(2)
	link.Add(value.T("a", "b"), 1)
	link.Add(value.T("x", "y"), 1)
	out := relation.New(1)
	if err := EvalRule(prog.Rules[0], []Source{{Rel: link}}, -1, out, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"b": 1})
}

func TestEvalRuleNegationFilter(t *testing.T) {
	prog, _ := parseProgram(t, `only(X,Y) :- t(X,Y), !h(X,Y).`)
	tRel := relation.New(2)
	tRel.Add(value.T("a", "b"), 2)
	tRel.Add(value.T("a", "c"), 1)
	h := relation.New(2)
	h.Add(value.T("a", "c"), 5)
	out := relation.New(2)
	if err := EvalRule(prog.Rules[0], []Source{{Rel: tRel}, {Rel: h}}, -1, out, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"a,b": 2})
}

func TestEvalRuleNegationJoinDelta(t *testing.T) {
	// Δ(¬h) join mode: the negation's relation is a signed delta image.
	prog, _ := parseProgram(t, `only(X,Y) :- t(X,Y), !h(X,Y).`)
	tRel := relation.New(2)
	tRel.Add(value.T("a", "b"), 1)
	tRel.Add(value.T("a", "c"), 1)
	dNotH := relation.New(2)
	dNotH.Add(value.T("a", "b"), -1) // h(a,b) became true
	out := relation.New(2)
	srcs := []Source{{Rel: tRel}, {Rel: dNotH, JoinDelta: true}}
	if err := EvalRule(prog.Rules[0], srcs, 1, out, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"a,b": -1})
}

func TestEvalRuleConditionsAndArithmetic(t *testing.T) {
	prog, _ := parseProgram(t, `big(X, C*2) :- p(X, C), C > 2, C != 4.`)
	p := relation.New(2)
	p.Add(value.T("a", 1), 1)
	p.Add(value.T("b", 3), 1)
	p.Add(value.T("c", 4), 1)
	p.Add(value.T("d", 9), 2)
	out := relation.New(2)
	if err := EvalRule(prog.Rules[0], []Source{{Rel: p}, {}, {}}, -1, out, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"b,6": 1, "d,18": 2})
}

func TestEvalRuleFirstLiteralOverride(t *testing.T) {
	prog, _ := parseProgram(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	link := relation.New(2)
	link.Add(value.T("a", "b"), 1)
	link.Add(value.T("b", "c"), 1)
	delta := relation.New(2)
	delta.Add(value.T("b", "c"), -1)
	// Δ at position 1: hop(X,Y) :- link(X,Z), Δlink(Z,Y).
	out := relation.New(2)
	if err := EvalRule(prog.Rules[0], []Source{{Rel: link}, {Rel: delta}}, 1, out, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"a,c": -1})
}

func TestEvalRuleSourceCountMismatch(t *testing.T) {
	prog, _ := parseProgram(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err := EvalRule(prog.Rules[0], []Source{{Rel: relation.New(2)}}, -1, relation.New(2), nil); err == nil {
		t.Fatal("source count mismatch must error")
	}
}

func TestGroupTableBuildAndDeltas(t *testing.T) {
	prog, _ := parseProgram(t, `m(S,M) :- groupby(u(S,C), [S], M = min(C)).`)
	g := prog.Rules[0].Body[0].Agg

	u := relation.New(2)
	u.Add(value.T("a", 5), 1)
	u.Add(value.T("a", 3), 1)
	u.Add(value.T("b", 7), 1)

	gt, err := BuildGroupTable(g, u)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, gt.Rel(), map[string]int64{"a,3": 1, "b,7": 1})

	// Insert a new minimum for a; delete b entirely; create group c.
	du := relation.New(2)
	du.Add(value.T("a", 1), 1)
	du.Add(value.T("b", 7), -1)
	du.Add(value.T("c", 9), 1)
	dt, err := gt.ApplyDelta(du, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, dt, map[string]int64{"a,3": -1, "a,1": 1, "b,7": -1, "c,9": 1})
	gt.Commit(dt)
	wantCounts(t, gt.Rel(), map[string]int64{"a,1": 1, "c,9": 1})

	// Delete the minimum of a: the group moves to the next value, 3.
	du2 := relation.New(2)
	du2.Add(value.T("a", 1), -1)
	dt2, err := gt.ApplyDelta(du2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, dt2, map[string]int64{"a,1": -1, "a,3": 1})
	gt.Commit(dt2)

	// Unchanged aggregate emits nothing (insert, then delete, a
	// non-extremal member).
	du3 := relation.New(2)
	du3.Add(value.T("a", 99), 1)
	for range 2 {
		dt3, err := gt.ApplyDelta(du3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dt3.Len() != 0 {
			t.Fatalf("unchanged group must emit no ΔT: %v", dt3)
		}
		gt.Commit(dt3)
		du3 = du3.Negate()
	}
}

func TestGroupTableConstPatternFilters(t *testing.T) {
	prog, _ := parseProgram(t, `m(S,M) :- groupby(u(S,k,C), [S], M = sum(C)).`)
	g := prog.Rules[0].Body[0].Agg
	u := relation.New(3)
	u.Add(value.T("a", "k", 5), 1)
	u.Add(value.T("a", "other", 100), 1) // filtered by the constant
	gt, err := BuildGroupTable(g, u)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, gt.Rel(), map[string]int64{"a,5": 1})
}

func TestGroupTableDuplicateMultiplicities(t *testing.T) {
	prog, _ := parseProgram(t, `m(S,M) :- groupby(u(S,C), [S], M = count(C)).`)
	g := prog.Rules[0].Body[0].Agg
	u := relation.New(2)
	u.Add(value.T("a", 5), 3) // three duplicates
	gt, err := BuildGroupTable(g, u)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, gt.Rel(), map[string]int64{"a,3": 1})
}

// ΔT's rows go in in the order the delta first touches their groups, each
// group's retraction before its new row, whatever order the table keeps
// its groups in: the stored T, and every relation derived from it, then
// iterates in an order its history fixes. Forty groups and ten applies on
// fresh tables: a walk over a map would differ between them.
func TestGroupDeltaFollowsFirstTouch(t *testing.T) {
	prog, _ := parseProgram(t, `deg(X,N) :- groupby(link(X,Y), [X], N = count(Y)).`)
	g := prog.Rules[0].Body[0].Agg
	for run := 0; run < 10; run++ {
		u := relation.New(2)
		for x := 0; x < 40; x++ {
			u.Add(value.T(x, 0), 1)
		}
		gt, err := BuildGroupTable(g, u)
		if err != nil {
			t.Fatal(err)
		}
		du := relation.New(2)
		for i := 0; i < 40; i++ {
			x := (i * 17) % 40 // first touches 0, 17, 34, 11, …
			du.Add(value.T(x, 1), 1)
			du.Add(value.T((x+5)%40, 2), 1) // touched again later: no new place
		}
		dt, err := gt.ApplyDelta(du, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		seen := map[int]bool{}
		du.Each(func(row relation.Row) {
			x := int(row.Tuple[0].Int())
			if !seen[x] {
				seen[x] = true
				want = append(want, value.T(x, 1).String()+"-1", value.T(x, 1+countIn(du, x)).String()+"+1")
			}
		})
		var got []string
		dt.Each(func(row relation.Row) {
			sign := "+1"
			if row.Count < 0 {
				sign = "-1"
			}
			got = append(got, row.Tuple.String()+sign)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("apply %d: ΔT holds %v, want first-touch order %v", run, got, want)
		}
		gt.Commit(dt)
	}
}

// countIn is the number of rows of d in group x.
func countIn(d *relation.Relation, x int) int {
	n := 0
	d.Each(func(row relation.Row) {
		if int(row.Tuple[0].Int()) == x {
			n++
		}
	})
	return n
}
