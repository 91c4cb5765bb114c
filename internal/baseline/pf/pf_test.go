package pf

import (
	"math/rand"
	"testing"

	"ivm/internal/core/dred"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

func load(t *testing.T, src string) *eval.DB {
	t.Helper()
	facts, err := parser.ParseDelta(src)
	if err != nil {
		t.Fatal(err)
	}
	db := eval.NewDB()
	for _, f := range facts {
		db.Ensure(f.Pred, len(f.Tuple)).Add(f.Tuple, f.Count)
	}
	return db
}

func engine(t *testing.T, progSrc, facts string) *Engine {
	t.Helper()
	prog, err := parser.ParseRules(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(prog, load(t, facts))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

const tcProgram = `
	tc(X,Y) :- link(X,Y).
	tc(X,Y) :- tc(X,Z), link(Z,Y).
`

func TestPFMatchesDRedResults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := eval.NewDB()
	base.Put("link", workload.GridGraph(3, 3))
	prog, err := parser.ParseRules(tcProgram)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	p.FragmentTuples = true
	d, err := dred.New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		batch := workload.Mixed(rng, d.Relation("link"), 9, 2, 2)
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
		if !relation.Equal(p.Relation("tc").ToSet(), d.Relation("tc").ToSet()) {
			t.Fatalf("round %d: tc diverges\npf:   %v\ndred: %v", round, p.Relation("tc"), d.Relation("tc"))
		}
	}
}

func TestPFFragmentsWork(t *testing.T) {
	// The same batch costs PF strictly more rule firings than one DRed
	// pass — the paper's fragmentation critique, measured.
	base := eval.NewDB()
	base.Put("link", workload.ChainGraph(30))
	prog, err := parser.ParseRules(tcProgram)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	p.FragmentTuples = true
	d, err := dred.New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := workload.SampleDeletes(rng, base.Get("link"), 5)
	dm := map[string]*relation.Relation{"link": batch}
	if _, err := p.Apply(dm); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(dm); err != nil {
		t.Fatal(err)
	}
	pst, dst := p.Stats().(Stats), d.Stats()
	if pst.Passes != 5 {
		t.Fatalf("passes = %d, want 5", pst.Passes)
	}
	if pst.RuleFirings <= dst.RuleFirings {
		t.Fatalf("PF should do more work: pf=%d dred=%d",
			pst.RuleFirings, dst.RuleFirings)
	}
}

func TestPFChangeSetsMergeAcrossPasses(t *testing.T) {
	// A tuple deleted in one pass and restored in a later pass must not
	// appear in the merged changes.
	e := engine(t, tcProgram, `link(a,b). link(a,c). link(c,b).`)
	batch := relation.New(2)
	// Delete a→b (tc(a,b) survives via c); also delete c→b then re-check:
	// single batch fragmented per-tuple.
	batchFacts, err := parser.ParseDelta(`-link(a,b).`)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range batchFacts {
		batch.Add(f.Tuple, f.Count)
	}
	e.FragmentTuples = true
	ch, err := e.Apply(map[string]*relation.Relation{"link": batch})
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
	e := engine(t, tcProgram+`tc(X,Y) :- hyper(X,Y).`, `link(a,b). link(b,c). hyper(c,d).`)
	before := make(map[string]*relation.Relation)
	for _, pred := range e.Preds() {
		before[pred] = e.Relation(pred).Clone()
	}
	// hyper's pass goes first and inserts; link's deletes an absent tuple.
	batch, err := parser.ParseDelta(`+hyper(d,e). -link(x,y).`)
	if err != nil {
		t.Fatal(err)
	}
	delta := make(map[string]*relation.Relation)
	for _, f := range batch {
		delta[f.Pred] = relation.New(len(f.Tuple))
		delta[f.Pred].Add(f.Tuple, f.Count)
	}
	if _, err := e.Apply(delta); err == nil {
		t.Fatal("deleting an absent link was accepted")
	}
	for _, pred := range e.Preds() {
		want := before[pred]
		if want == nil {
			want = relation.New(e.Relation(pred).Arity())
		}
		if !relation.Equal(e.Relation(pred), want) {
			t.Errorf("%s after the refused batch: %v, before: %v", pred, e.Relation(pred), want)
		}
	}
}
