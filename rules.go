package ivm

import (
	"fmt"

	"ivm/internal/parser"
	"ivm/internal/relation"
)

// AddRule extends the view definition (DRed strategy only; Section 7's
// rule insertion maintenance). Rule edits serialize with Apply batches
// under the write lock and publish a fresh version before returning.
// Store-bound views checkpoint the edit as a new epoch; as with Apply, an
// edit that was maintained but could not be made durable is still
// published and reported as an error (Sync, or treat the store as lost),
// and one refused up front — after Close the error wraps ErrStoreClosed —
// changes nothing.
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

// editRules runs one rule edit through the commit pipeline's admit …
// notify stages (processBatch), as a group of its own: admitted against
// the store before the engine is touched, maintained by the engine's rule
// editor, logged as a checkpoint, published with the version map rebuilt
// in full, and reported to commit-record subscribers as a reset.
func (v *Views) editRules(op string, edit func(ruleEditor) (map[string]*relation.Relation, error)) (*ChangeSet, error) {
	ed, ok := v.eng.(ruleEditor)
	if !ok {
		return nil, fmt.Errorf("ivm: %s requires the DRed strategy (have %v)", op, v.strategy)
	}
	v.wmu.Lock()
	err := v.admitLocked(nil)
	var per map[string]*relation.Relation
	if err == nil {
		per, err = edit(ed)
	}
	if err != nil {
		v.wmu.Unlock()
		return nil, err
	}
	// The program text is regenerated from the edited rule set so Save and
	// checkpoints persist the views as they now are (base facts already
	// live in the database, so dropping fact clauses from the text loses
	// nothing).
	v.programSrc = v.eng.Program().String()
	g := &applyGroup{cs: v.changeSetLocked(per), rels: v.engineRelsLocked(), reset: true}
	g.rec.Version = v.cur.Load().id + 1
	g.cs.version = g.rec.Version
	groups := []*applyGroup{g}
	v.logLocked(groups)
	v.publishLocked(groups)
	v.wmu.Unlock()
	v.notifyGroups(groups, v.recordHandlers())
	if g.err != nil {
		return nil, g.err
	}
	return g.cs, nil
}
