package relation_test

import (
	"math/rand"
	"testing"

	"ivm/internal/core/dred"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// A counting apply probes a stored relation by a Δ row's key exactly
// twice per row it commits: once when the row's stratum closes (for a base
// row, when the apply checks it) and once when the commit merges it. The
// shape is TestHopBatchAllocCeiling's (internal/core/counting): every row
// of the batch and of its undo changes the base. Before Stored.Counts the
// counting path probed 4 times per Δ(head) row (Theorem 4.1's check,
// setTransitions' two passes, the merge) and 3 per base row (two passes
// of Has, the merge): 20 064 probes for these 5 064 rows, 3.96 a row,
// counted at Stored.Count and MergeDelta in a copy of that commit. The 66
// Count probes the rule walks' overlay merges make are not Δ-row probes,
// and neither count holds them.
func TestCountingProbesEachCommittedRowTwice(t *testing.T) {
	prog, err := parser.ParseRules(`
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
		deg(X,C)     :- groupby(hop(X,Y), [X], C = count(Y)).`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	link := workload.RandomGraph(rng, 500, 1000)
	batch := workload.SampleDeletes(rng, link, 16)
	for _, row := range workload.RandomGraph(rng, 500, 64).SortedRows() {
		if batch.Len() < 32 && !link.Has(row.Tuple) {
			batch.Add(row.Tuple, 1)
		}
	}
	base := eval.NewDB()
	base.Put("link", link)
	e, err := dred.NewWithConfig(prog, base, dred.Config{Algorithm: dred.Counting, Semantics: eval.Set})
	if err != nil {
		t.Fatal(err)
	}
	var probes, rows, derived int64
	for i := range 6 {
		d := batch
		if i%2 == 1 {
			d = batch.Negate()
		}
		before := relation.RowProbes()
		if _, err := e.Apply(map[string]*relation.Relation{"link": d}); err != nil {
			t.Fatal(err)
		}
		probes += relation.RowProbes() - before
		for _, c := range e.CommittedDeltas() {
			rows += int64(c.Len())
		}
		derived += int64(e.Stats().DeltaTuples)
	}
	t.Logf("%d probes for %d committed rows, %d of them Δ(head) rows", probes, rows, derived)
	if derived == 0 || rows != derived+6*int64(batch.Len()) {
		t.Fatalf("setup: %d committed rows, %d of them Δ(head) rows, want every batch row and some derived ones", rows, derived)
	}
	if probes != 2*rows {
		t.Fatalf("%d probes of stored counts for %d committed rows (%.2f a row), want exactly 2 a row: one at close, one in the merge", probes, rows, float64(probes)/float64(rows))
	}
}
