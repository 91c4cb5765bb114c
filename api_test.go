package ivm_test

import (
	"path/filepath"
	"strings"
	"testing"

	"ivm"
)

func TestAutoStrategySelection(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Strategy() != ivm.Counting {
		t.Fatalf("nonrecursive → counting, got %v", v.Strategy())
	}
	v2, err := db.Materialize(`
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Strategy() != ivm.DRed {
		t.Fatalf("recursive → dred, got %v", v2.Strategy())
	}
}

// A fact whose arity clashes with its relation's — within one input or
// with a relation loaded before — is an error that names the predicate,
// the fact and both arities, and nothing of that input is inserted.
func TestLoadRejectsArityClash(t *testing.T) {
	for _, tt := range []struct{ before, src, want string }{
		{"", `link(a,b). link(x,y). link(a,b,c).`, "fact link(a, b, c) has arity 3, but link has arity 2"},
		{`link(a,b).`, `hop(a,b). link(c).`, "fact link(c) has arity 1, but link has arity 2"},
	} {
		db := ivm.NewDatabase()
		db.MustLoad(tt.before)
		err := db.Load(tt.src)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Fatalf("Load(%q) after %q: err = %v, want one that says %q", tt.src, tt.before, err, tt.want)
		}
		if n := len(db.Rows("link")); n != len(strings.Fields(tt.before)) || db.Rows("hop") != nil {
			t.Fatalf("Load(%q) after %q inserted facts: link %v, hop %v", tt.src, tt.before, db.Rows("link"), db.Rows("hop"))
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[ivm.Strategy]string{
		ivm.Auto: "auto", ivm.Counting: "counting", ivm.DRed: "dred",
		ivm.Recompute: "recompute", ivm.PF: "pf",
	} {
		if s.String() != want {
			t.Errorf("%d: %q", s, s.String())
		}
	}
}

func TestFactsInProgramText(t *testing.T) {
	db := ivm.NewDatabase()
	v, err := db.Materialize(`
		link(a,b). link(b,c).
		hop(X,Y) :- link(X,Z), link(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has("hop", "a", "c") {
		t.Fatal("facts from program text must be loaded")
	}
}

func TestCountingForcedOnRecursiveFails(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b).`)
	_, err := db.Materialize(`
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`, ivm.WithStrategy(ivm.Counting))
	if err == nil {
		t.Fatal("counting on recursive must fail")
	}
}

func TestDRedDuplicateSemanticsRejected(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b).`)
	_, err := db.Materialize(`v(X,Y) :- link(X,Y).`,
		ivm.WithStrategy(ivm.DRed), ivm.WithSemantics(ivm.DuplicateSemantics))
	if err == nil || !strings.Contains(err.Error(), "set semantics") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidationErrorsSurface(t *testing.T) {
	db := ivm.NewDatabase()
	if _, err := db.Materialize(`p(X,Y) :- q(X).`); err == nil {
		t.Fatal("unsafe rule must fail")
	}
	if _, err := db.Materialize(`p(X) :- q(X`); err == nil {
		t.Fatal("syntax error must fail")
	}
	if _, err := db.Materialize(`
		p(X) :- b(X), !q(X).
		q(X) :- b(X), !p(X).
	`); err == nil {
		t.Fatal("unstratifiable program must fail")
	}
}

func TestUpdateBuilder(t *testing.T) {
	u := ivm.NewUpdate().
		Insert("link", "a", "b").
		Delete("link", "c", "d").
		InsertTuple("link", ivm.T("e", "f"), 3)
	if u.Empty() {
		t.Fatal("not empty")
	}
	if got := u.Preds(); len(got) != 1 || got[0] != "link" {
		t.Fatalf("preds: %v", got)
	}
	s := u.String()
	for _, want := range []string{"+link(a, b).", "-link(c, d).", "+link(e, f) * 3."} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	// Round-trip through the parser.
	u2, err := ivm.ParseUpdate(s)
	if err != nil {
		t.Fatal(err)
	}
	if u2.String() != s {
		t.Fatalf("round trip: %q vs %q", u2.String(), s)
	}
	// Insert+Delete of the same tuple cancels.
	u3 := ivm.NewUpdate().Insert("p", 1).Delete("p", 1)
	if !u3.Empty() {
		t.Fatal("cancelled update must be empty")
	}
}

func TestUpdateMerge(t *testing.T) {
	a := ivm.NewUpdate().Insert("p", 1)
	b := ivm.NewUpdate().Delete("p", 1).Insert("q", 2)
	a.Merge(b)
	if got := a.Preds(); len(got) != 2 {
		t.Fatalf("preds: %v", got)
	}
	if !strings.Contains(a.String(), "+q(2).") || strings.Contains(a.String(), "p(1)") {
		t.Fatalf("merged: %q", a.String())
	}
}

func TestChangeSetAccessors(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.Apply(ivm.NewUpdate().Delete("link", "b", "c").Insert("link", "b", "d"))
	if err != nil {
		t.Fatal(err)
	}
	if ch.Empty() {
		t.Fatal("changes expected")
	}
	if preds := ch.Preds(); len(preds) != 1 || preds[0] != "hop" {
		t.Fatalf("preds: %v", preds)
	}
	ins, del := ch.Inserted("hop"), ch.Deleted("hop")
	if len(ins) != 1 || !ins[0].Tuple.Equal(ivm.T("a", "d")) {
		t.Fatalf("inserted: %v", ins)
	}
	if len(del) != 1 || !del[0].Tuple.Equal(ivm.T("a", "c")) || del[0].Count != 1 {
		t.Fatalf("deleted: %v", del)
	}
	if !strings.Contains(ch.String(), "Δ(hop)") {
		t.Fatalf("render: %q", ch.String())
	}
}

func TestDatabaseAccessors(t *testing.T) {
	db := ivm.NewDatabase()
	db.Insert("p", 1, "x")
	db.InsertTuple("p", ivm.T(2, "y"), 4)
	rows := db.Rows("p")
	if len(rows) != 2 || rows[1].Count != 4 {
		t.Fatalf("rows: %v", rows)
	}
	if db.Rows("absent") != nil {
		t.Fatal("absent relation")
	}
}

func TestApplyScriptErrors(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b).`)
	v, err := db.Materialize(`v(X,Y) :- link(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyScript(`not a script`); err == nil {
		t.Fatal("bad script must error")
	}
	if _, err := v.ApplyScript(`-link(zz,qq).`); err == nil {
		t.Fatal("bad deletion must error")
	}
}

func TestRuleChangeRequiresDRed(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b).`)
	v, err := db.Materialize(`v(X,Y) :- link(X,Y).`) // counting
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddRule(`v(X,Y) :- other(X,Y).`); err == nil {
		t.Fatal("AddRule on counting must error")
	}
	if _, err := v.RemoveRule(0); err == nil {
		t.Fatal("RemoveRule on counting must error")
	}
}

func TestRuleChangeEndToEnd(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c). hyper(x,y).`)
	v, err := db.Materialize(`
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`, ivm.WithStrategy(ivm.DRed))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.AddRule(`tc(X,Y) :- hyper(X,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Inserted("tc")) != 1 || !v.Has("tc", "x", "y") {
		t.Fatalf("AddRule: %v", ch)
	}
	ch, err = v.RemoveRule(2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has("tc", "x", "y") || len(ch.Deleted("tc")) != 1 {
		t.Fatalf("RemoveRule: %v", ch)
	}
}

func TestSaveAndLoadViews(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "views.gob")

	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	src := `hop(X,Y) :- link(X,Z), link(Z,Y).`
	v, err := db.Materialize(src, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(ivm.NewUpdate().Insert("link", "b", "d")); err != nil {
		t.Fatal(err)
	}
	if err := v.Save(path); err != nil {
		t.Fatal(err)
	}

	v2, err := ivm.LoadViews(path, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	if v2.ProgramSource() != src {
		t.Fatalf("program: %q", v2.ProgramSource())
	}
	for _, pred := range []string{"link", "hop"} {
		a, b := v.Rows(pred), v2.Rows(pred)
		if len(a) != len(b) {
			t.Fatalf("%s: %v vs %v", pred, a, b)
		}
		for i := range a {
			if !a[i].Tuple.Equal(b[i].Tuple) || a[i].Count != b[i].Count {
				t.Fatalf("%s row %d: %v vs %v", pred, i, a[i], b[i])
			}
		}
	}
	// And the restored views keep maintaining.
	if _, err := v2.Apply(ivm.NewUpdate().Delete("link", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if v2.Has("hop", "a", "c") {
		t.Fatal("maintenance after load")
	}
}

func TestPFStrategyThroughAPI(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c). link(a,c).`)
	v, err := db.Materialize(`
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`, ivm.WithStrategy(ivm.PF), ivm.WithTupleFragmentation())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b").Delete("link", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Has("tc", "a", "b") || !v.Has("tc", "a", "c") {
		t.Fatalf("tc: %v", v.Rows("tc"))
	}
	st, ok := v.PFStats()
	if !ok || st.Passes != 2 {
		t.Fatalf("pf stats: %+v ok=%v", st, ok)
	}
	if len(ch.Deleted("tc")) == 0 {
		t.Fatal("deletions expected")
	}
}

func TestRecomputeStrategyThroughAPI(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithStrategy(ivm.Recompute), ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Deleted("hop")) != 1 {
		t.Fatalf("Δhop: %v", ch.Delta("hop"))
	}
}

func TestCountAndHasOnBaseRelations(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b) * 2.`)
	v, err := db.Materialize(`v(X,Y) :- link(X,Y).`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	if v.Count("link", "a", "b") != 2 {
		t.Fatal("base count")
	}
	if v.Count("absent", "q") != 0 || v.Has("absent", "q") {
		t.Fatal("absent predicate")
	}
}

func TestOnChangeSubscriptions(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	var hopEvents, anyEvents []string
	v.OnChange("hop", func(pred string, ins, del []ivm.Row) {
		for _, r := range ins {
			hopEvents = append(hopEvents, "+"+r.Tuple.String())
		}
		for _, r := range del {
			hopEvents = append(hopEvents, "-"+r.Tuple.String())
		}
	})
	v.OnChange("", func(pred string, ins, del []ivm.Row) {
		anyEvents = append(anyEvents, pred)
	})

	if _, err := v.Apply(ivm.NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if len(hopEvents) != 1 || hopEvents[0] != "+(b, d)" {
		t.Fatalf("hop events: %v", hopEvents)
	}
	if len(anyEvents) != 1 || anyEvents[0] != "hop" {
		t.Fatalf("any events: %v", anyEvents)
	}
	// Handlers may read the views.
	v.OnChange("hop", func(pred string, ins, del []ivm.Row) {
		if !v.Has("link", "a", "b") {
			t.Error("handler read failed")
		}
	})
	if _, err := v.Apply(ivm.NewUpdate().Delete("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if hopEvents[len(hopEvents)-1] != "-(b, d)" {
		t.Fatalf("hop events: %v", hopEvents)
	}
	// No-op updates fire nothing.
	n := len(anyEvents)
	if _, err := v.Apply(ivm.NewUpdate().Insert("link", "z", "q")); err != nil {
		t.Fatal(err)
	}
	if len(anyEvents) != n {
		t.Fatalf("no-op fired handlers: %v", anyEvents)
	}
}

func TestOnChangeWithRuleChanges(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). tunnel(b,c).`)
	v, err := db.Materialize(`
		reach(X,Y) :- link(X,Y).
		reach(X,Y) :- reach(X,Z), reach(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	v.OnChange("reach", func(string, []ivm.Row, []ivm.Row) { fired++ })
	if _, err := v.AddRule(`reach(X,Y) :- tunnel(X,Y).`); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("AddRule fired %d", fired)
	}
	if _, err := v.RemoveRule(2); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("RemoveRule fired %d", fired)
	}
}

// The engines freeze the deltas they build so publication links them
// uncopied, but an Update stays its caller's: under duplicate semantics
// its relations pass through an engine as they are, and must still be
// legal to extend and apply again — without the version already published
// seeing what was added since.
func TestUpdateStaysTheCallersAfterApply(t *testing.T) {
	for name, opts := range map[string][]ivm.Option{
		"counting/set":        {ivm.WithStrategy(ivm.Counting)},
		"counting/duplicate":  {ivm.WithStrategy(ivm.Counting), ivm.WithSemantics(ivm.DuplicateSemantics)},
		"recompute/set":       {ivm.WithStrategy(ivm.Recompute)},
		"recompute/duplicate": {ivm.WithStrategy(ivm.Recompute), ivm.WithSemantics(ivm.DuplicateSemantics)},
		"dred/set":            {ivm.WithStrategy(ivm.DRed)},
		"pf/set":              {ivm.WithStrategy(ivm.PF)},
	} {
		t.Run(name, func(t *testing.T) {
			db := ivm.NewDatabase()
			db.MustLoad(`link(a,b). link(b,c).`)
			v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, opts...)
			if err != nil {
				t.Fatal(err)
			}
			u := ivm.NewUpdate().Insert("link", "c", "d")
			if _, err := v.Apply(u); err != nil {
				t.Fatal(err)
			}
			published := v.Snapshot()
			u.Insert("link", "d", "e") // panics if Apply froze the caller's relation
			if published.Has("link", "d", "e") || v.Has("link", "d", "e") {
				t.Fatal("a row added to the Update after Apply reached the published version")
			}
			if _, err := v.Apply(u); err != nil {
				t.Fatal(err)
			}
			if !v.Has("hop", "c", "e") || published.Has("hop", "c", "e") {
				t.Fatal("re-applying the extended Update did not derive hop(c,e) in the new version only")
			}
			want := int64(1)
			if strings.HasSuffix(name, "duplicate") {
				want = 2 // link(c,d) went in twice
			}
			if got := v.Count("link", "c", "d"); got != want {
				t.Fatalf("count(link(c,d)) = %d after applying it twice, want %d", got, want)
			}
		})
	}
}
