package counting

import (
	"math/rand"
	"testing"

	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// hopBatch is the layered benchmark's hop_batch_mem shape at a quarter of
// its size: the three-strata hop program over a random graph, and a mixed
// batch — 16 stored links deleted, 16 new ones inserted — with the batch
// that undoes it.
func hopBatch(tb testing.TB) (e *Engine, batch, undo map[string]*relation.Relation) {
	prog, err := parser.ParseRules(`
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
		deg(X,C)     :- groupby(hop(X,Y), [X], C = count(Y)).`)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	link := workload.RandomGraph(rng, 500, 1000)
	d := workload.SampleDeletes(rng, link, 16)
	for _, row := range workload.RandomGraph(rng, 500, 64).SortedRows() {
		if d.Len() < 32 && !link.Has(row.Tuple) {
			d.Add(row.Tuple, 1)
		}
	}
	base := eval.NewDB()
	base.Put("link", link)
	if e, err = New(prog, base, eval.Set); err != nil {
		tb.Fatal(err)
	}
	return e, map[string]*relation.Relation{"link": d}, map[string]*relation.Relation{"link": d.Negate()}
}

// hopBatchAllocCeiling is ~10 % above the objects one batch and its undo
// allocate (measured 2 651; 3 585 with a map of buckets per index, 5 235
// with the outputs' lenders taken away): an engine output that stops
// borrowing the rows its head relation stores, or an index that makes
// objects per key again, fails here, not only in the layered benchmark's
// allocs_per_apply.
const hopBatchAllocCeiling = 2900

func TestHopBatchAllocCeiling(t *testing.T) {
	e, batch, undo := hopBatch(t)
	allocs := testing.AllocsPerRun(20, func() {
		for _, d := range []map[string]*relation.Relation{batch, undo} {
			if _, err := e.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("a 16+16 batch and its undo allocate %.0f objects (ceiling %d)", allocs, hopBatchAllocCeiling)
	if allocs > hopBatchAllocCeiling {
		t.Fatalf("a 16+16 batch and its undo allocate %.0f objects, ceiling %d: does every output still name its lender (headDelta)?", allocs, hopBatchAllocCeiling)
	}
}

func BenchmarkCountingHopBatch(b *testing.B) {
	e, batch, undo := hopBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := batch
		if i%2 == 1 {
			d = undo
		}
		if _, err := e.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}
