package counting

import (
	"ivm/internal/core/dred"
	"math/rand"
	"runtime"
	"testing"

	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// hopBatch is the layered benchmark's hop_batch_mem shape at a quarter of
// its size: the three-strata hop program over a random graph, and a mixed
// batch — 16 stored links deleted, 16 new ones inserted — with the batch
// that undoes it.
func hopBatch(tb testing.TB, reg *metrics.Registry) (e *dred.Engine, batch, undo map[string]*relation.Relation) {
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
	if e, err = NewWithConfig(prog, base, Config{Semantics: eval.Set, Metrics: reg}); err != nil {
		tb.Fatal(err)
	}
	return e, map[string]*relation.Relation{"link": d}, map[string]*relation.Relation{"link": d.Negate()}
}

// hopBatchAllocCeiling is ~10 % above the objects one batch and its undo
// allocate (measured 903; 1 710 with a new row's tuple and key two
// allocations, a group's T tuple keyed apart from it; 1 773 before; 2 521 with a group's retraction keyed again,
// its undo state cloned and deg's heads built beside ΔT's rows; 2 651 with
// a map binding and walk scratch per evaluation, 3 585 with a map of
// buckets per index, 5 235 with the outputs' lenders taken away): an
// engine output that stops borrowing the rows its head relation stores or
// ΔT holds, an index that makes objects per key, or a walk that allocates
// its scratch again fails here, not only in the layered benchmark's
// allocs_per_apply.
const hopBatchAllocCeiling = 995

// hopBatchByteCeiling is ~10 % above the bytes one batch and its undo
// allocate (MemStats.TotalAlloc over the same runs; measured 227 120;
// 260 253 when a table entry was 40 bytes, its cell holding a pointer to
// the key behind the row's values; 277 662 with a fresh slice of ΔT's rows per group table and apply;
// 278 050 before; 294 400 when each set-semantics cascade was a second table beside its
// Δ(head) copy, picked in two passes; 392 100 when each apply grew every
// Δ(head) from 8 rows in a fresh table and a rebase that shrank its
// relation copied the base twice): a published Δ copied twice, or grown
// again each apply, or a cascade copied where Δ(head) is it, fails here.
const hopBatchByteCeiling = 250000

// hopBatchWork is the work of TestHopBatchAllocCeiling's 21 batch-and-undo
// pairs (AllocsPerRun's warm-up and 20 runs), exactly as the interpreter
// that bound variables in a map counted it: a cheaper walk of the same
// plans makes the same probes and scans and derives the same heads. Built
// counts ΔT's new group rows, which deg's heads borrow (17 325 borrowed
// when deg built its own).
var hopBatchWork = map[string]int64{
	"eval_join_probes_total":    10290,
	"eval_join_scans_total":     210,
	"eval_heads_built_total":    16905,
	"eval_heads_borrowed_total": 21105,
}

func TestHopBatchAllocCeiling(t *testing.T) {
	reg := metrics.NewRegistry()
	e, batch, undo := hopBatch(t, reg)
	before := reg.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes0 := ms.TotalAlloc
	allocs := testing.AllocsPerRun(20, func() {
		for _, d := range []map[string]*relation.Relation{batch, undo} {
			if _, err := e.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	})
	runtime.ReadMemStats(&ms)
	bytes := (ms.TotalAlloc - bytes0) / 21 // AllocsPerRun's warm-up and its 20 runs
	t.Logf("a 16+16 batch and its undo allocate %.0f objects (ceiling %d) and %d bytes (ceiling %d)", allocs, hopBatchAllocCeiling, bytes, hopBatchByteCeiling)
	if allocs > hopBatchAllocCeiling {
		t.Fatalf("a 16+16 batch and its undo allocate %.0f objects, ceiling %d: does every output still name its lender (headDelta)?", allocs, hopBatchAllocCeiling)
	}
	if bytes > hopBatchByteCeiling {
		t.Fatalf("a 16+16 batch and its undo allocate %d bytes, ceiling %d: is Δ(head) still built in the engine's working table and copied once at its size, and does a shrinking rebase copy its base once?", bytes, hopBatchByteCeiling)
	}
	after := reg.Snapshot()
	for name, want := range hopBatchWork {
		if got := after.Counter(name) - before.Counter(name); got != want {
			t.Errorf("%s = %d over the stream, want %d: a plan or a walk changed the work", name, got, want)
		}
	}
}

func BenchmarkCountingHopBatch(b *testing.B) {
	e, batch, undo := hopBatch(b, nil)
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
