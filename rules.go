package ivm

import (
	"fmt"

	"ivm/internal/core/dred"
	"ivm/internal/parser"
	"ivm/internal/relation"
)

// AddRule extends the view definition (Section 7's rule insertion
// maintenance) on the strata of any program; an edit making a stratum
// recursive under duplicate semantics, or reading a relation that holds
// rows of another arity, is refused. Recompute evaluates the edited
// program afresh. A rule edit is a commit like an Apply: it publishes a version
// before returning, and its commit record carries the edited program and
// the edit's Δ, which the WAL logs and followers fold.
// As with Apply, an edit maintained but not made durable is published and
// reported as an error, and one refused up front (after Close the error
// wraps ErrStoreClosed) changes nothing.
func (v *Views) AddRule(ruleSrc string) (*ChangeSet, error) {
	prog, err := parser.ParseRules(ruleSrc)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 1 {
		return nil, fmt.Errorf("ivm: AddRule expects exactly one rule, got %d", len(prog.Rules))
	}
	return v.editRules(func(eng *dred.Engine) (map[string]*relation.Relation, error) {
		return eng.AddRule(prog.Rules[0])
	})
}

// RemoveRule removes rule index ri (as listed by Program) from the view
// definition (see AddRule).
func (v *Views) RemoveRule(ri int) (*ChangeSet, error) {
	return v.editRules(func(eng *dred.Engine) (map[string]*relation.Relation, error) {
		return eng.RemoveRule(ri)
	})
}

// editRules submits a rule edit to the commit pipeline (processBatch): a
// request never merged with another, maintained by the engine, and
// otherwise admitted, logged, published and notified as any.
func (v *Views) editRules(edit func(*dred.Engine) (map[string]*relation.Relation, error)) (*ChangeSet, error) {
	cs, _, err := v.submit(&applyReq{edit: edit})
	return cs, err
}
