package ivm

import (
	"ivm/internal/core/dred"
	"ivm/internal/relation"
)

// What the engine holds, as opposed to what the views have published: the
// external test package asserts that the two never part.

// EngineRules is the number of rules in the engine's program.
func EngineRules(v *Views) int {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return len(v.eng.Program().Rules)
}

// EngineRows is the engine's stored relation for pred, sorted.
func EngineRows(v *Views, pred string) []Row {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	r := v.eng.DB().Get(pred)
	if r == nil {
		return nil
	}
	return r.SortedRows()
}

// EngineRelation is the engine's stored relation for pred (nil if none).
func EngineRelation(v *Views, pred string) *relation.Relation {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return v.eng.DB().Get(pred)
}

// EngineGroupRel is the engine's committed T for rule ri's aggregate
// literal li (nil under a baseline, or without a table for it).
func EngineGroupRel(v *Views, ri, li int) *relation.Relation {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	if e, ok := v.eng.(*dred.Engine); ok {
		return e.GroupRel(ri, li)
	}
	return nil
}

// EngineCommittedDeltas is what the engine's last operation merged into
// its stored relations.
func EngineCommittedDeltas(v *Views) map[string]*relation.Relation {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return v.eng.CommittedDeltas()
}
