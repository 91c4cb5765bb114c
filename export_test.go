package ivm

import (
	"sync"

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
	r := v.eng.Stored(pred)
	if r == nil {
		return nil
	}
	return r.Relation().SortedRows()
}

// EngineRelation is the engine's stored relation for pred, as one
// relation (nil if none).
func EngineRelation(v *Views, pred string) *relation.Relation {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	if r := v.eng.Stored(pred); r != nil {
		return r.Relation()
	}
	return nil
}

// EngineBase is the relation the engine's stored relation for pred is
// kept over (nil if none): the rows a row that comes back borrows.
func EngineBase(v *Views, pred string) *relation.Relation {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	if r := v.eng.Stored(pred); r != nil {
		return r.Base()
	}
	return nil
}

// VersionFlat is pred's current version as one relation: the engine's
// base itself while the version is at depth 0.
func VersionFlat(v *Views, pred string) *relation.Relation { return v.cur.Load().rels[pred].Flat() }

// VersionDepth is the overlay depth of pred's current version: 0 right
// after the engine made it a new base.
func VersionDepth(v *Views, pred string) int { return v.cur.Load().rels[pred].Depth() }

// HeldCells is the row cells the engine's stored relations and the current
// version hold between them, each table counted once, and the rows stored.
func HeldCells(v *Views) (cells, rows int) {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	var stored []*relation.Stored
	var versions []*relation.Versioned
	for _, pred := range v.eng.Preds() {
		st := v.eng.Stored(pred)
		stored, rows = append(stored, st), rows+st.Len()
		if vr := v.cur.Load().rels[pred]; vr != nil {
			versions = append(versions, vr)
		}
	}
	return relation.Cells(stored, versions), rows
}

// EngineGroupRel is the engine's committed T for rule ri's aggregate
// literal li (nil without a table for it).
func EngineGroupRel(v *Views, ri, li int) *relation.Relation {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return v.eng.GroupRel(ri, li)
}

// EngineCommittedDeltas is what the engine's last operation merged into
// its stored relations.
func EngineCommittedDeltas(v *Views) map[string]*relation.Relation {
	v.wmu.Lock()
	defer v.wmu.Unlock()
	return v.eng.CommittedDeltas()
}

// HoldWriter takes the write mutex every commit takes, as a maintainer
// does for its whole pass, until release is called (once or more).
func HoldWriter(v *Views) (release func()) {
	v.wmu.Lock()
	return sync.OnceFunc(v.wmu.Unlock)
}
