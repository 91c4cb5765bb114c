package experiments

import (
	"math/rand"
	"sort"
	"testing"

	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// pfEngine is E9's baseline for the Propagation/Filtration family of
// recursive maintenance algorithms ([HD92], see the paper's Section 2):
// instead of propagating all base changes together, stratum by stratum,
// it computes the changes to the derived predicates one base predicate at
// a time (one tuple at a time with perTuple), re-attempting rederivation
// of deleted tuples on every pass. The paper argues this fragmentation
// "can rederive changed and deleted tuples again and again, and can be
// worse than our rederivation algorithm by an order of magnitude" — E9
// measures exactly that gap against DRed.
type pfEngine struct {
	d *dred.Engine
	// perTuple propagates every changed tuple in its own pass — the
	// finest-grained (and most wasteful) PF schedule.
	perTuple bool
	// last is the work of the most recent Apply, summed over its passes.
	last pfStats
}

// pfStats sums the per-pass DRed step counters E9 reports; the repeated
// rederivation work is what separates PF from a single DRed pass.
type pfStats struct {
	Passes, Rederived, RuleFirings int
}

// mustPF materializes prog over base (set semantics). The inner DRed
// engine reports to no registry: last is PF's account of its passes.
func mustPF(prog *datalog.Program, base *eval.DB, perTuple bool) *pfEngine {
	d, err := dred.New(prog, base)
	if err != nil {
		panic(err)
	}
	return &pfEngine{d: d, perTuple: perTuple}
}

// Apply propagates the batch fragmented into one pass per base predicate
// (or per tuple with perTuple) and returns the signed net change of each
// derived relation across the passes.
func (e *pfEngine) Apply(baseDelta map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	e.last = pfStats{}
	preds := make([]string, 0, len(baseDelta))
	for p := range baseDelta {
		preds = append(preds, p)
	}
	sort.Strings(preds)

	committed := make(map[string]*relation.Relation)
	pass := func(delta map[string]*relation.Relation) error {
		if _, err := e.d.Apply(delta); err != nil {
			return err
		}
		st := e.d.Stats()
		e.last.Passes++
		e.last.Rederived += st.Rederived
		e.last.RuleFirings += st.RuleFirings
		// The pass's committed net holds its base transitions and, for
		// each derived predicate, exactly the change the pass reported.
		for pred, n := range e.d.CommittedDeltas() {
			acc, ok := committed[pred]
			if !ok {
				acc = relation.New(n.Arity())
				committed[pred] = acc
			}
			acc.MergeDelta(n)
		}
		return nil
	}
	// A refused apply leaves the engine as it found it: the passes that
	// went through are folded back out.
	fail := func(err error) (map[string]*relation.Relation, error) {
		for pred, acc := range committed {
			committed[pred] = acc.Negate()
		}
		e.d.Fold(committed)
		return nil, err
	}

	for _, pred := range preds {
		d := baseDelta[pred]
		if e.perTuple {
			// Deletions first, then insertions, one tuple per pass.
			var rows []relation.Row
			d.Each(func(row relation.Row) { rows = append(rows, row) })
			sort.Slice(rows, func(i, j int) bool {
				if (rows[i].Count < 0) != (rows[j].Count < 0) {
					return rows[i].Count < 0
				}
				return rows[i].Tuple.Compare(rows[j].Tuple) < 0
			})
			for _, row := range rows {
				one := relation.New(d.Arity())
				one.Add(row.Tuple, row.Count)
				if err := pass(map[string]*relation.Relation{pred: one}); err != nil {
					return fail(err)
				}
			}
			continue
		}
		if err := pass(map[string]*relation.Relation{pred: d}); err != nil {
			return fail(err)
		}
	}

	// A tuple one pass deleted and a later one rederived has cancelled in
	// the sum: what is left of a derived predicate is its visible change.
	out := make(map[string]*relation.Relation)
	derived := e.d.Program().DerivedPreds()
	for pred, acc := range committed {
		if derived[pred] && !acc.Empty() {
			out[pred] = acc
		}
	}
	return out, nil
}

// facts parses a delta script into one relation per predicate.
func facts(src string) map[string]*relation.Relation {
	fs, err := parser.ParseDelta(src)
	if err != nil {
		panic(err)
	}
	out := make(map[string]*relation.Relation)
	for _, f := range fs {
		if out[f.Pred] == nil {
			out[f.Pred] = relation.New(len(f.Tuple))
		}
		out[f.Pred].Add(f.Tuple, f.Count)
	}
	return out
}

func TestPFMatchesDRedResults(t *testing.T) {
	r := rng(9)
	base := linkDB(workload.GridGraph(3, 3))
	prog := rules(tcProgram)
	p, d := mustPF(prog, base, true), mustEngine(prog, base, dred.DRed, eval.Set)
	for round := 0; round < 10; round++ {
		batch := workload.Mixed(r, d.Relation("link"), 9, 2, 2)
		if batch.Empty() {
			continue
		}
		dm := map[string]*relation.Relation{"link": batch}
		if _, err := p.Apply(dm); err != nil {
			t.Fatalf("pf round %d: %v", round, err)
		}
		if _, err := d.Apply(dm); err != nil {
			t.Fatalf("dred round %d: %v", round, err)
		}
		if !relation.Equal(p.d.Relation("tc").ToSet(), d.Relation("tc").ToSet()) {
			t.Fatalf("round %d: tc diverges\npf:   %v\ndred: %v", round, p.d.Relation("tc"), d.Relation("tc"))
		}
	}
}

func TestPFFragmentsWork(t *testing.T) {
	// The same batch costs PF strictly more rule firings than one DRed
	// pass — the paper's fragmentation critique, measured. A 30×1 grid
	// is the chain n0→n1→…→n29.
	base := linkDB(workload.GridGraph(30, 1))
	prog := rules(tcProgram)
	p, d := mustPF(prog, base, true), mustEngine(prog, base, dred.DRed, eval.Set)
	batch := workload.SampleDeletes(rand.New(rand.NewSource(1)), base.Get("link"), 5)
	dm := map[string]*relation.Relation{"link": batch}
	if _, err := p.Apply(dm); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(dm); err != nil {
		t.Fatal(err)
	}
	if p.last.Passes != 5 {
		t.Fatalf("passes = %d, want 5", p.last.Passes)
	}
	if p.last.RuleFirings <= d.Stats().RuleFirings {
		t.Fatalf("PF should do more work: pf=%d dred=%d", p.last.RuleFirings, d.Stats().RuleFirings)
	}
}

func TestPFChangeSetsMergeAcrossPasses(t *testing.T) {
	// A tuple deleted in one pass and restored in a later pass must not
	// appear in the merged changes: tc(a,b) survives -link(a,b) via c.
	e := mustPF(rules(tcProgram), linkDB(facts(`link(a,b). link(a,c). link(c,b).`)["link"]), true)
	ch, err := e.Apply(facts(`-link(a,b).`))
	if err != nil {
		t.Fatal(err)
	}
	if ch["tc"] != nil {
		t.Fatalf("tc unchanged as a set, but Δ(tc) = %v", ch["tc"])
	}
}

// TestPFRefusedApplyRollsBackEarlierPasses: the passes of a batch commit
// one by one, so when a later pass is refused the earlier ones must be
// folded back out and the refused batch leave every relation as it was.
func TestPFRefusedApplyRollsBackEarlierPasses(t *testing.T) {
	base := facts(`link(a,b). link(b,c). hyper(c,d).`)
	db := linkDB(base["link"])
	db.Put("hyper", base["hyper"])
	e := mustPF(rules(tcProgram+`tc(X,Y) :- hyper(X,Y).`), db, false)
	before := make(map[string]*relation.Relation)
	for _, pred := range e.d.Preds() {
		before[pred] = e.d.Relation(pred).Clone()
	}
	// hyper's pass goes first and inserts; link's deletes an absent tuple.
	if _, err := e.Apply(facts(`+hyper(d,e). -link(x,y).`)); err == nil {
		t.Fatal("deleting an absent link was accepted")
	}
	for _, pred := range e.d.Preds() {
		want := before[pred]
		if want == nil {
			want = relation.New(e.d.Relation(pred).Arity())
		}
		if !relation.Equal(e.d.Relation(pred), want) {
			t.Errorf("%s after the refused batch: %v, before: %v", pred, e.d.Relation(pred), want)
		}
	}
}
