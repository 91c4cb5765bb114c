// Package pf is a faithful-in-spirit baseline for the Propagation/
// Filtration family of recursive maintenance algorithms ([HD92], see the
// paper's Section 2): instead of propagating all base changes together,
// stratum by stratum, it computes the changes to the derived predicates
// one base predicate at a time (optionally one *tuple* at a time),
// re-attempting rederivation of deleted tuples on every pass. The paper
// argues this fragmentation "can rederive changed and deleted tuples
// again and again, and can be worse than our rederivation algorithm by an
// order of magnitude" — experiment E9 measures exactly that gap against
// DRed.
package pf

import (
	"sort"

	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/relation"
)

// Stats aggregates the work across all fragmented passes.
type Stats struct {
	// Passes counts the independent propagation passes performed.
	Passes int
	// Overestimated/Rederived/Inserted/RuleFirings sum the per-pass DRed
	// step counters; the repeated rederivation work is what separates PF
	// from a single DRed pass.
	Overestimated int
	Rederived     int
	Inserted      int
	RuleFirings   int
}

// Engine maintains views by per-base-predicate (or per-tuple) change
// propagation.
type Engine struct {
	d *dred.Engine

	// FragmentTuples, when set, propagates every changed tuple in its own
	// pass — the finest-grained (and most wasteful) PF schedule.
	FragmentTuples bool

	// last holds the accumulated work counters of the most recent Apply,
	// read via Stats(). Callers sharing the engine across goroutines must
	// serialize Apply against Stats (see dred.Engine).
	last Stats
}

// Stats returns the accumulated work counters of the most recent Apply,
// as a Stats.
func (e *Engine) Stats() any { return e.last }

// New materializes prog over base (set semantics). The inner DRed
// engine reports to no registry: Stats is PF's account of its passes.
func New(prog *datalog.Program, base *eval.DB) (*Engine, error) {
	d, err := dred.New(prog, base)
	if err != nil {
		return nil, err
	}
	return &Engine{d: d}, nil
}

// Program returns the view program.
func (e *Engine) Program() *datalog.Program { return e.d.Program() }

// Relation returns the stored relation for pred, or nil.
func (e *Engine) Relation(pred string) *relation.Relation { return e.d.Relation(pred) }

// Preds returns the predicates the engine stores, sorted.
func (e *Engine) Preds() []string { return e.d.Preds() }

// Apply propagates the batch fragmented into one pass per base predicate
// (or per tuple with FragmentTuples) and returns the signed net change of
// each derived relation across the passes.
func (e *Engine) Apply(baseDelta map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	e.last = Stats{}
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
		e.last.Overestimated += st.Overestimated
		e.last.Rederived += st.Rederived
		e.last.Inserted += st.Inserted
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
		if e.FragmentTuples {
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
