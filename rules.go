package ivm

import (
	"fmt"

	"ivm/internal/parser"
	"ivm/internal/relation"
)

// AddRule extends the view definition (DRed strategy only; Section 7's
// rule insertion maintenance). A rule edit is a commit like an Apply: it
// publishes a version before returning, and its commit record carries the
// edited program and the edit's Δ, which the WAL logs and followers fold.
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
	return v.editRules("AddRule", func(ed ruleEditor) (map[string]*relation.Relation, error) {
		return ed.AddRule(prog.Rules[0])
	})
}

// RemoveRule removes rule index ri (as listed by Program) from the view
// definition (DRed strategy only; see AddRule).
func (v *Views) RemoveRule(ri int) (*ChangeSet, error) {
	return v.editRules("RemoveRule", func(ed ruleEditor) (map[string]*relation.Relation, error) {
		return ed.RemoveRule(ri)
	})
}

// editRules submits a rule edit to the commit pipeline (processBatch): a
// request never merged with another, maintained by the engine's rule
// editor, and otherwise admitted, logged, published and notified as any.
func (v *Views) editRules(op string, edit func(ruleEditor) (map[string]*relation.Relation, error)) (*ChangeSet, error) {
	if _, ok := v.eng.(ruleEditor); !ok {
		return nil, fmt.Errorf("ivm: %s requires the DRed strategy (have %v)", op, v.strategy)
	}
	cs, _, err := v.submit(&applyReq{edit: edit})
	return cs, err
}
