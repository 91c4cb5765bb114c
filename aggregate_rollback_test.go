package ivm_test

import (
	"math/rand"
	"strings"
	"testing"

	"ivm"
)

// An apply rejected inside an aggregate (a sum meeting a string) must
// leave every group table as it was: the next good apply has to end in
// the rows a fresh Materialize of the surviving base computes. The failing
// table is not in the engine's pending set when it fails, so it rolls
// itself back; a table that succeeded earlier in the same apply is rolled
// back by the engine (propagate's error return).
// With two aggregates the count or min subgoal is maintained first and
// succeeds; the min one has just rescanned the group whose minimum the
// rejected apply deletes. A stream of good applies follows, each compared
// with Recompute: a group table's undo snapshots recycle their states, so
// a rollback must leave none of them shared.
func TestRejectedAggregateApplyLeavesGroupTablesIntact(t *testing.T) {
	const (
		sum   = "total(X,S) :- groupby(G,[X],S=sum(V)).\n"
		count = "cnt(X,N) :- groupby(G,[X],N=count(V)).\n"
		min   = "lo(X,M) :- groupby(G,[X],M=min(V)).\n"
		tc    = "tc(X,Y) :- link(X,Y).\ntc(X,Y) :- link(X,Z), tc(Z,Y).\n"
	)
	bad := func(pred, from string) string {
		var sb strings.Builder
		for _, v := range []string{"100", "101", "102", "103", "104", "105", "106", "107", `"oops"`} {
			sb.WriteString("+" + pred + "(" + from + "," + v + "). ")
		}
		return sb.String()
	}
	for _, tt := range []struct {
		name, base, program, bad, good string
		strategy                       ivm.Strategy
		preds                          []string
	}{
		{"counting/one", "sales(a,10).", strings.ReplaceAll(sum, "G", "sales(X,V)"),
			bad("sales", "a"), "+sales(a,1).", ivm.Counting, []string{"total"}},
		{"counting/two", "sales(a,10).", strings.ReplaceAll(count+sum, "G", "sales(X,V)"),
			bad("sales", "a"), "+sales(a,1).", ivm.Counting, []string{"cnt", "total"}},
		{"dred/one", "link(1,2). link(2,3).", tc + strings.ReplaceAll(sum, "G", "tc(X,V)"),
			bad("link", "3"), "+link(3,4).", ivm.DRed, []string{"tc", "total"}},
		{"dred/two", "link(1,2). link(2,3).", tc + strings.ReplaceAll(count+sum, "G", "tc(X,V)"),
			bad("link", "3"), "+link(3,4).", ivm.DRed, []string{"tc", "cnt", "total"}},
		{"counting/min", "sales(a,10). sales(a,20). sales(b,5).", strings.ReplaceAll(min+sum, "G", "sales(X,V)"),
			"-sales(a,10). " + bad("sales", "a"), "+sales(a,1).", ivm.Counting, []string{"lo", "total"}},
		{"dred/min", "link(1,2). link(2,3). link(1,4).", tc + strings.ReplaceAll(min+sum, "G", "tc(X,V)"),
			"-link(1,2). " + bad("link", "4"), "+link(3,5).", ivm.DRed, []string{"tc", "lo", "total"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			v := mustViews(t, tt.base, tt.program, ivm.WithStrategy(tt.strategy))
			if _, err := v.ApplyScript(tt.bad); err == nil || !strings.Contains(err.Error(), "non-numeric") {
				t.Fatalf("bad apply: err = %v, want a sum over a non-numeric value", err)
			}
			apply(t, v, tt.good)
			fresh := mustViews(t, tt.base+" "+tt.good[1:], tt.program, ivm.WithStrategy(tt.strategy))
			for _, pred := range tt.preds {
				if w, g := fresh.Rows(pred), v.Rows(pred); !sameRows(w, g, true) {
					t.Fatalf("after a rejected apply and a good one: %s is\n%v\nwant\n%v", pred, g, w)
				}
			}

			rec := mustViews(t, tt.base+" "+tt.good[1:], tt.program, ivm.WithStrategy(ivm.Recompute))
			pred := tt.good[1:strings.IndexByte(tt.good, '(')]
			rng := rand.New(rand.NewSource(int64(len(tt.name))))
			for step := 0; step < 24; step++ {
				u, w := ivm.NewUpdate(), ivm.NewUpdate()
				if rows := v.Rows(pred); len(rows) > 0 && rng.Intn(3) > 0 {
					r := rows[rng.Intn(len(rows))]
					u.InsertTuple(pred, r.Tuple, -1)
					w.InsertTuple(pred, r.Tuple, -1)
				}
				x, y := 1+rng.Intn(4), 1+rng.Intn(5)
				u.Insert(pred, x, y)
				w.Insert(pred, x, y)
				if _, err := v.Apply(u); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if _, err := rec.Apply(w); err != nil {
					t.Fatalf("step %d under Recompute: %v", step, err)
				}
				for _, pred := range tt.preds {
					if w, g := rec.Rows(pred), v.Rows(pred); !sameRows(w, g, false) {
						t.Fatalf("step %d (%v): %s is\n%v\nwant\n%v", step, u, pred, g, w)
					}
				}
			}
		})
	}
}

// A rejected apply may fail after its outputs borrowed stored rows: a
// deletion's Δ row is the stored row's tuple and key under another count.
// Whether it is refused before any rule runs (a deletion of an absent
// tuple), inside the first stratum or inside the last (a sum meeting a
// string after other rules of the apply were evaluated), every stored
// relation must keep its rows and counts, and the next good apply must end
// where a fresh Materialize of the surviving base does.
func TestRejectedApplyAfterBorrowingLeavesStoredRowsIntact(t *testing.T) {
	const (
		hop   = "hop(X,Y) :- link(X,Z), link(Z,Y).\n"
		tc    = "tc(X,Y) :- link(X,Y).\ntc(X,Y) :- link(X,Z), tc(Z,Y).\n"
		first = "total(X,S) :- groupby(link(X,V),[X],S=sum(V)).\n" // beside the join, in stratum 1
		base  = "link(1,2). link(1,3). link(2,3). link(2,4). link(3,4). link(4,5)."
		good  = "-link(2,3). +link(3,5)."
	)
	last := func(view string) string { return "total(X,S) :- groupby(" + view + "(X,V),[X],S=sum(V)).\n" }
	for _, tt := range []struct {
		name, program, bad, wantErr string
		opts                        []ivm.Option
		preds                       []string
	}{
		{"counting/first-stratum", hop + first, `-link(2,3). +link(2,"oops").`, "non-numeric",
			[]ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)}, []string{"hop", "total"}},
		{"counting/last-stratum", hop + last("hop"), `-link(2,3). +link(4,"oops").`, "non-numeric",
			[]ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)}, []string{"hop", "total"}},
		{"counting/absent-tuple", hop + last("hop"), `-link(2,3). -link(9,9).`, "absent",
			nil, []string{"hop", "total"}},
		{"dred/first-stratum", tc + first, `-link(2,3). +link(2,"oops").`, "non-numeric",
			[]ivm.Option{ivm.WithStrategy(ivm.DRed)}, []string{"tc", "total"}},
		{"dred/last-stratum", tc + last("tc"), `-link(2,3). +link(5,"oops").`, "non-numeric",
			[]ivm.Option{ivm.WithStrategy(ivm.DRed)}, []string{"tc", "total"}},
		{"dred/absent-tuple", tc + last("tc"), `-link(2,3). -link(9,9).`, "absent",
			[]ivm.Option{ivm.WithStrategy(ivm.DRed)}, []string{"tc", "total"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			v := mustViews(t, base, tt.program, tt.opts...)
			all := append([]string{"link"}, tt.preds...)
			before := make(map[string][]ivm.Row)
			for _, pred := range all {
				before[pred] = ivm.EngineRows(v, pred)
			}
			if _, err := v.ApplyScript(tt.bad); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("bad apply: err = %v, want one that says %q", err, tt.wantErr)
			}
			for _, pred := range all {
				if after := ivm.EngineRows(v, pred); !sameRows(before[pred], after, true) {
					t.Fatalf("the rejected apply moved stored %s:\n got %v\nwant %v", pred, after, before[pred])
				}
			}
			borrowed := watchBorrowing(v)
			apply(t, v, good)
			borrowed(t, "the good apply")
			fresh := mustViews(t, strings.Replace(base, "link(2,3).", "link(3,5).", 1), tt.program, tt.opts...)
			for _, pred := range all {
				if w, g := fresh.Rows(pred), v.Rows(pred); !sameRows(w, g, true) {
					t.Fatalf("after a rejected apply and a good one: %s is\n%v\nwant\n%v", pred, g, w)
				}
			}
		})
	}
}

// A rule edit rejected while it is maintained — AddRule's seed meeting a
// non-numeric operand, RemoveRule's insertions under a negation meeting
// one — must leave the program as it was: Program() and ProgramSource()
// (what checkpoints persist) keep the old rules, and later applies end
// where a fresh Materialize of the old program over the same base does.
func TestRejectedAddRuleLeavesProgramIntact(t *testing.T) {
	const tc = "tc(X,Y) :- link(X,Y).\ntc(X,Y) :- tc(X,Z), link(Z,Y).\n"
	for _, tt := range []struct {
		name, base, program, later string
		edit                       func(*ivm.Views) (*ivm.ChangeSet, error)
		preds                      []string
	}{
		{"add-rule/seed", "link(a,b). link(b,c). w(a,x).", tc, "+link(c,d). +w(b,3).",
			func(v *ivm.Views) (*ivm.ChangeSet, error) { return v.AddRule("tc(X, Y + 1) :- w(X, Y).") },
			[]string{"tc"}},
		{"remove-rule/propagate", "q(a). w(a,x).", "p(X) :- q(X).\nr(X, Y + 1) :- w(X, Y), !p(X).\n", "+q(b). +w(c,3).",
			func(v *ivm.Views) (*ivm.ChangeSet, error) { return v.RemoveRule(0) },
			[]string{"p", "r"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			v := mustViews(t, tt.base, tt.program, ivm.WithStrategy(ivm.DRed))
			src := v.ProgramSource()
			if _, err := tt.edit(v); err == nil || !strings.Contains(err.Error(), "non-numeric") {
				t.Fatalf("edit: err = %v, want a non-numeric operand", err)
			}
			for _, script := range strings.SplitAfter(tt.later, ". ") {
				apply(t, v, script)
			}
			if n := len(v.Program().Rules); n != 2 || v.ProgramSource() != src {
				t.Fatalf("after the rejected edit Program() has %d rules and ProgramSource() is\n%s\nwant 2 rules and\n%s", n, v.ProgramSource(), src)
			}
			fresh := mustViews(t, tt.base+" "+strings.ReplaceAll(tt.later, "+", ""), tt.program, ivm.WithStrategy(ivm.DRed))
			for _, pred := range tt.preds {
				if w, g := fresh.Rows(pred), v.Rows(pred); !sameRows(w, g, true) {
					t.Fatalf("after a rejected edit and two applies: %s is\n%v\nwant\n%v", pred, g, w)
				}
			}
		})
	}
}
