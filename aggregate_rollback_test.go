package ivm_test

import (
	"strings"
	"testing"

	"ivm"
)

// An apply rejected inside an aggregate (a sum meeting a string) must
// leave every group table as it was: the next good apply has to end in
// the rows a fresh Materialize of the surviving base computes. The failing
// table is not in the engine's pending set when it fails, so it rolls
// itself back; a table that succeeded earlier in the same apply is rolled
// back by the engine (counting's fail, dred.propagate's error return).
// With two aggregates the count subgoal is maintained first and succeeds.
func TestRejectedAggregateApplyLeavesGroupTablesIntact(t *testing.T) {
	const (
		sum   = "total(X,S) :- groupby(G,[X],S=sum(V)).\n"
		count = "cnt(X,N) :- groupby(G,[X],N=count(V)).\n"
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
	} {
		t.Run(tt.name, func(t *testing.T) {
			v := mustViews(t, tt.base, tt.program, ivm.WithStrategy(tt.strategy))
			if _, err := v.ApplyScript(tt.bad); err == nil || !strings.Contains(err.Error(), "non-numeric") {
				t.Fatalf("bad apply: err = %v, want a sum over a non-numeric value", err)
			}
			apply(t, v, tt.good)
			fresh := mustViews(t, tt.base+" "+tt.good[1:], tt.program, ivm.WithStrategy(tt.strategy))
			requireSameRows(t, "after a rejected apply and a good one", tt.preds, fresh, v, true)
		})
	}
}
