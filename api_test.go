package ivm_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
		ivm.Recompute: "recompute",
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

// Counting views take rule edits: an added rule's derivations arrive with
// their counts, a removed one's leave. Recompute evaluates the edited
// program afresh, to the same counts.
func TestRuleEditOnCountingViews(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). other(a,b). other(c,d).`)
	v, err := db.Materialize(`v(X,Y) :- link(X,Y).`)
	if err != nil || v.Strategy() != ivm.Counting {
		t.Fatalf("materialize: %v, strategy %v", err, v.Strategy())
	}
	cs, err := v.AddRule(`v(X,Y) :- other(X,Y).`)
	if err != nil || v.Count("v", "a", "b") != 2 || v.Count("v", "c", "d") != 1 || len(cs.Inserted("v")) != 1 {
		t.Fatalf("AddRule: %v, v = %v, change set %v", err, v.Rows("v"), cs)
	}
	if cs, err = v.RemoveRule(0); err != nil || v.Count("v", "a", "b") != 1 || len(cs.Deleted("v")) != 0 {
		t.Fatalf("RemoveRule: %v, v = %v, change set %v", err, v.Rows("v"), cs)
	}
	r, err := db.Materialize(`w(X,Y) :- link(X,Y).`, ivm.WithStrategy(ivm.Recompute))
	if err != nil {
		t.Fatal(err)
	}
	if cs, err := r.AddRule(`w(X,Y) :- other(X,Y).`); err != nil || r.Count("w", "a", "b") != 2 || len(cs.Inserted("w")) != 1 {
		t.Fatalf("AddRule under Recompute: %v, w = %v, change set %v", err, r.Rows("w"), cs)
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

// An emptied relation takes the arity a rule edit reads it at — or
// derives it at — and a follower folding the edit's records lands on the
// same rows; one that holds rows of another arity refuses the edit and
// keeps the program.
func TestRuleEditResetsAnEmptiedRelationsArity(t *testing.T) {
	for _, s := range []ivm.Strategy{ivm.Auto, ivm.Counting, ivm.DRed} {
		t.Run(s.String(), func(t *testing.T) {
			build := func(facts string) *ivm.Views {
				db := ivm.NewDatabase()
				db.MustLoad(`link(a,b). link(b,c). s(1).` + facts)
				v, err := db.Materialize(`v(X,Y) :- link(X,Y).`, ivm.WithStrategy(s))
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			v, follower, stranger := build(""), build(""), build(`link(c,d).`)
			var folded *ivm.ChangeSet
			h := v.History()
			v.OnCommit(func(cs *ivm.ChangeSet) {
				ev, _ := h.At(cs.Version())
				var err error
				if folded, err = follower.ApplyCommitRecord(ev.CommitRecord, ev.Trace.Published); err != nil {
					t.Errorf("folding record %d: %v", cs.Version(), err)
				}
			})
			for _, views := range []*ivm.Views{v, stranger} {
				for _, script := range []string{`+q(1).`, `-q(1).`, `+w(1).`, `-w(1).`} {
					if _, err := views.ApplyScript(script); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := views.AddRule(`r(X,Y) :- q(X,Y).`); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := stranger.ApplyScript(`+q(1,2).`); err != nil {
				t.Fatal(err)
			}
			if _, err := v.ApplyScript(`+q(1,2).`); err != nil || !v.Has("r", 1, 2) {
				t.Fatalf("q(1,2): %v, r = %v", err, v.Rows("r"))
			}
			if _, err := v.ApplyScript(`+q(3).`); err == nil {
				t.Fatal("q(3) at the arity the rules no longer read it at must be refused")
			}
			if _, err := v.AddRule(`u(X,Y) :- s(X,Y).`); err == nil || len(v.Program().Rules) != 2 {
				t.Fatalf("an edit reading s(1) at arity 2: %v, %d rules", err, len(v.Program().Rules))
			}
			if _, err := v.AddRule(`w(X,Y) :- link(X,Y).`); err != nil {
				t.Fatal(err)
			}
			want := v.Rows("link")
			for _, views := range []*ivm.Views{v, follower} {
				if got := views.Rows("w"); !sameRows(want, got, true) {
					t.Fatalf("w derived at arity 2 from an emptied arity-1 relation: %v, want %v", got, want)
				}
				if got := views.Snapshot().Rows("w"); !sameRows(want, got, true) {
					t.Fatalf("published w: %v, want %v", got, want)
				}
			}
			if _, err := v.ApplyScript(`-link(a,b).`); err != nil || v.Has("w", "a", "b") || !follower.Has("w", "b", "c") || follower.Has("w", "a", "b") {
				t.Fatalf("-link(a,b): %v, w = %v, follower's %v", err, v.Rows("w"), follower.Rows("w"))
			}
			// An edit record cut over another state installs its program
			// before its Δ is vetted; refused, it leaves the program as it was.
			stranger.History()
			for _, step := range []func() error{
				func() error { _, err := stranger.AddRule(`w(X,Y) :- link(X,Y).`); return err },
				func() error { _, err := stranger.ApplyScript(`-link(a,b).`); return err },
				func() error { _, err := stranger.RemoveRule(2); return err },
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			var div *ivm.DivergenceError
			if _, err := follower.ApplyCommitRecord(newestRecord(stranger), time.Time{}); !errors.As(err, &div) || div.Pred != "w" {
				t.Fatalf("folding another state's edit record: %v", err)
			}
			if len(follower.Program().Rules) != 3 || !sameRows(v.Rows("w"), follower.Rows("w"), true) {
				t.Fatalf("a refused edit record moved the follower: %d rules, w = %v", len(follower.Program().Rules), follower.Rows("w"))
			}
			if _, err := v.ApplyScript(`+link(c,d).`); err != nil || len(folded.Inserted("w")) != 1 {
				t.Fatalf("+link(c,d) after a refused edit record: %v, the follower reports %v", err, folded)
			}
			if _, err := v.RemoveRule(2); err != nil || len(follower.Program().Rules) != 2 || follower.Has("w", "b", "c") {
				t.Fatalf("RemoveRule: %v, follower's rules %v, w = %v", err, follower.Program().Rules, follower.Rows("w"))
			}
		})
	}
}

// A commit record is stamped with what maintains its program. A DRed
// views' record of a mixed program — the stamp the views of an earlier
// build, which chose one algorithm per program, cut under auto — does not
// fold into auto views, whose nonrecursive strata keep counts; an auto
// views' record of a nonrecursive program folds into counting ones.
func TestRecordStampNamesTheStrataAlgorithms(t *testing.T) {
	const mixed = `tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
		pair(X,Y) :- tc(X,Z), tc(Z,Y).`
	build := func(program string, opts ...ivm.Option) *ivm.Views {
		db := ivm.NewDatabase()
		db.MustLoad(`link(a,b). link(b,c). link(a,c). link(c,d).`)
		v, err := db.Materialize(program, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cut := func(v *ivm.Views) ivm.CommitRecord {
		v.History()
		if _, err := v.ApplyScript(`-link(b,c).`); err != nil {
			t.Fatal(err)
		}
		return newestRecord(v)
	}
	rec := cut(build(mixed, ivm.WithStrategy(ivm.DRed)))
	auto := build(mixed)
	if auto.Strategy() != ivm.Auto || auto.Count("pair", "a", "d") != 2 {
		t.Fatalf("auto views of a mixed program: %v, pair = %v", auto.Strategy(), auto.Rows("pair"))
	}
	var div *ivm.DivergenceError
	if _, err := auto.ApplyCommitRecord(rec, time.Time{}); !errors.As(err, &div) || div.Engine != "dred/set" || div.Have != "auto/set" {
		t.Fatalf("folding a DRed record into auto views: %v", err)
	}
	if auto.Snapshot().Version() != 1 || auto.Count("pair", "a", "d") != 2 {
		t.Fatalf("the refused record moved the views: version %d, pair = %v", auto.Snapshot().Version(), auto.Rows("pair"))
	}
	if _, err := auto.ApplyCommitRecord(cut(build(mixed)), time.Time{}); err != nil || auto.Has("tc", "b", "c") {
		t.Fatalf("folding an auto record: %v, tc = %v", err, auto.Rows("tc"))
	}
	hop := `hop(X,Y) :- link(X,Z), link(Z,Y).`
	counting := build(hop, ivm.WithStrategy(ivm.Counting))
	if _, err := counting.ApplyCommitRecord(cut(build(hop)), time.Time{}); err != nil || counting.Has("hop", "a", "c") {
		t.Fatalf("folding an auto record of a nonrecursive program into counting views: %v, hop = %v", err, counting.Rows("hop"))
	}
	// An edit record is stamped with what maintains the program it
	// installs, and checked against what would maintain it here.
	primary := build(hop)
	primary.History()
	if _, err := primary.AddRule(`hop(X,Y) :- hop(X,Z), link(Z,Y).`); err != nil || primary.Strategy() != ivm.DRed {
		t.Fatalf("AddRule making hop recursive: %v, %v", err, primary.Strategy())
	}
	rec = newestRecord(primary)
	for _, c := range []struct {
		have string
		opts []ivm.Option
	}{
		{"counting/set", []ivm.Option{ivm.WithStrategy(ivm.Counting)}},
		{"counting/duplicate", []ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)}},
		{"", nil},
	} {
		v := build(hop, c.opts...)
		_, err := v.ApplyCommitRecord(rec, time.Time{})
		if c.have == "" {
			if err != nil || v.Strategy() != ivm.DRed || !sameRows(primary.Rows("hop"), v.Rows("hop"), true) {
				t.Fatalf("folding the edit into auto views: %v, %v, hop = %v", err, v.Strategy(), v.Rows("hop"))
			}
			continue
		}
		if !errors.As(err, &div) || div.Engine != "dred/set" || div.Have != c.have || len(v.Program().Rules) != 1 {
			t.Fatalf("folding the edit into %s views: %v, %d rules", c.have, err, len(v.Program().Rules))
		}
		if _, err := v.ApplyScript(`+link(d,e).`); err != nil || !v.Has("hop", "c", "e") || v.Has("hop", "b", "e") {
			t.Fatalf("%s views after the refused edit record: %v, hop = %v", c.have, err, v.Rows("hop"))
		}
	}
}

// newestRecord is the record of v's newest commit as its history holds
// it: whole, since nothing committed after it. The history must have been
// running before that commit (History starts it).
func newestRecord(v *ivm.Views) ivm.CommitRecord {
	ev, _ := v.History().At(v.Snapshot().Version())
	return ev.CommitRecord
}
