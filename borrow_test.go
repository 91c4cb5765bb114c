package ivm_test

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"ivm"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// The one rule for who builds a tuple (DESIGN.md §4): an engine's output
// borrows the row its head relation already stores, and builds a tuple
// only for a row that is new. watchBorrowing records what v's engine
// stores for every derived predicate; the function it returns is called
// after the next operation on v and fails the test unless every row of
// the engine's committed deltas whose tuple was stored before is that
// stored tuple, pointer for pointer. It returns how many committed rows
// were not stored before (fresh), and how many tuples rule evaluation and
// GROUPBY tables' ΔT built during the operation.
func watchBorrowing(v *ivm.Views) func(t *testing.T, what string) (fresh, built int64) {
	storedBefore := make(map[string]map[string]*ivm.Value)
	for pred := range v.Program().DerivedPreds() {
		rows := make(map[string]*ivm.Value)
		if r := ivm.EngineRelation(v, pred); r != nil {
			r.Each(func(row relation.Row) { rows[row.Key()] = unsafe.SliceData(row.Tuple) })
		}
		storedBefore[pred] = rows
	}
	builtBefore := v.Metrics().Counter("eval_heads_built_total")
	return func(t *testing.T, what string) (fresh, built int64) {
		t.Helper()
		for pred, d := range ivm.EngineCommittedDeltas(v) {
			rows, derived := storedBefore[pred]
			if !derived {
				continue
			}
			d.Each(func(row relation.Row) {
				switch p, was := rows[row.Key()]; {
				case !was:
					fresh++
				case p != unsafe.SliceData(row.Tuple):
					t.Errorf("%s: Δ(%s) holds a copy of the stored tuple %v (count %+d)", what, pred, row.Tuple, row.Count)
				}
			})
		}
		return fresh, v.Metrics().Counter("eval_heads_built_total") - builtBefore
	}
}

func TestDerivedRowsBorrowStoredRows(t *testing.T) {
	// The tc_dred_mem shape: an apply deletes 4 links of a layered DAG with
	// skip-layer cross edges, the next puts them back. Every overestimated
	// and rederived head is a stored row, so DRed builds exactly the tuples
	// it inserts.
	t.Run("flip-stream", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		link := workload.LayeredDAG(rng, 8, 24, 2)
		for added := 0; added < 40; {
			l := rng.Intn(6)
			tu := ivm.T(fmt.Sprintf("n%d", l*24+rng.Intn(24)), fmt.Sprintf("n%d", (l+2)*24+rng.Intn(24)))
			if !link.Has(tu) {
				link.Add(tu, 1)
				added++
			}
		}
		db := ivm.NewDatabase()
		link.Each(func(row relation.Row) { db.InsertTuple("link", row.Tuple, 1) })
		v, err := db.Materialize(oracleTC, ivm.WithStrategy(ivm.DRed))
		if err != nil {
			t.Fatal(err)
		}
		var held *relation.Relation
		var inserted int
		for step := 0; step < 60; step++ {
			d := held
			if held == nil {
				d = workload.SampleDeletes(rng, ivm.EngineRelation(v, "link"), 4)
				held = d.Negate()
			} else {
				held = nil
			}
			u := ivm.NewUpdate()
			d.Each(func(row relation.Row) { u.InsertTuple("link", row.Tuple, row.Count) })
			check := watchBorrowing(v)
			if _, err := v.Apply(u); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			fresh, built := check(t, fmt.Sprintf("step %d", step))
			st := v.Trace().Stats
			if built != int64(st.Inserted) || fresh != built {
				t.Fatalf("step %d: %d heads built, %d rows inserted, %d committed rows were not stored", step, built, st.Inserted, fresh)
			}
			inserted += st.Inserted
		}
		if inserted == 0 {
			t.Fatal("the stream inserted nothing")
		}
	})

	// A head over a GROUPBY subgoal is T's row (Algorithm 6.1): after
	// Materialize and after every apply, each stored deg / min_cost_hop
	// row is T's tuple, pointer for pointer, so a new one was borrowed from
	// ΔT, which built it once.
	t.Run("groupby", func(t *testing.T) {
		for _, ex := range []struct {
			head, facts, program string
			opts                 []ivm.Option
			scripts              []string
		}{
			{"deg", example11Links, "hop(X,Y) :- link(X,Z), link(Z,Y).\ndeg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).",
				nil, []string{`+link(b,f).`, `-link(a,b).`, `+link(a,b). +link(d,g).`, `-link(b,f). -link(d,g).`}},
			{"min_cost_hop", `link(a,b,10). link(b,c,20). link(b,e,5). link(a,d,15). link(d,c,6).`, `
				hop(S,D,C1+C2)    :- link(S,I,C1), link(I,D,C2).
				min_cost_hop(S,D,M) :- groupby(hop(S,D,C), [S,D], M = min(C)).`,
				[]ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)},
				[]string{`+link(a,x,6). +link(x,c,6).`, `-link(x,c,6).`, `-link(b,c,20). -link(d,c,6).`}},
		} {
			v := mustViews(t, ex.facts, ex.program, ex.opts...)
			sharesT := func(what string) {
				tr := ivm.EngineGroupRel(v, 1, 0)
				ivm.EngineRelation(v, ex.head).Each(func(row relation.Row) {
					if got, ok := tr.Stored([]byte(row.Key())); !ok || unsafe.SliceData(got.Tuple) != unsafe.SliceData(row.Tuple) {
						t.Errorf("%s: stored %s%v is not T's tuple", what, ex.head, row.Tuple)
					}
				})
			}
			sharesT("after Materialize")
			var fresh int64
			for _, script := range ex.scripts {
				check := watchBorrowing(v)
				apply(t, v, script)
				f, built := check(t, script)
				if built < f {
					t.Fatalf("%s: %d committed rows were not stored, and only %d heads were built", script, f, built)
				}
				sharesT(script)
				fresh += f
			}
			if fresh == 0 {
				t.Fatalf("%s: no apply added a row", ex.head)
			}
		}
	})

	// The paper's worked examples: 1.1 under DRed (§7), 4.2 and 6.2 under
	// counting with duplicate semantics (counts change on stored rows).
	for _, ex := range []struct {
		name, facts, program string
		opts                 []ivm.Option
		scripts              []string
	}{
		{"example-1.1-dred", example11Links, `hop(X,Y) :- link(X,Z), link(Z,Y).`,
			[]ivm.Option{ivm.WithStrategy(ivm.DRed)}, []string{`-link(a,b).`, `+link(a,b).`}},
		{"example-4.2", example42Links, example42Program,
			[]ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)},
			[]string{`-link(a,b). +link(d,f). +link(a,f).`, `+link(a,b). -link(d,f).`}},
		{"example-6.2", `link(a,b,10). link(b,c,20). link(b,e,5). link(a,d,15). link(d,c,6).`, `
			hop(S,D,C1+C2)    :- link(S,I,C1), link(I,D,C2).
			min_cost_hop(S,D,M) :- groupby(hop(S,D,C), [S,D], M = min(C)).`,
			[]ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)},
			[]string{`+link(a,x,6). +link(x,c,6).`, `-link(x,c,6).`, `-link(b,c,20). -link(d,c,6).`}},
	} {
		t.Run(ex.name, func(t *testing.T) {
			v := mustViews(t, ex.facts, ex.program, ex.opts...)
			borrowed := 0
			for _, script := range ex.scripts {
				check := watchBorrowing(v)
				cs := apply(t, v, script)
				fresh, built := check(t, script)
				if built < fresh {
					t.Fatalf("%s: %d committed rows were not stored, and only %d heads were built", script, fresh, built)
				}
				for _, pred := range cs.Preds() {
					borrowed += len(cs.Deleted(pred))
				}
			}
			if borrowed == 0 {
				t.Fatal("no apply deleted a stored row: nothing could be borrowed")
			}
		})
	}
}
