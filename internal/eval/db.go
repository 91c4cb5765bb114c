// Package eval evaluates one rule of the extended Datalog dialect at a
// time: a cost-based planner orders its subgoals, and a walk joins them
// with on-demand hash indexes under duplicate-counting semantics
// ([Mum91]), negation as a filter and GROUPBY group tables. It has no
// fixpoint driver: the maintenance engine (internal/core/dred) runs the
// strata, and materializes views as maintenance from ∅.
package eval

import (
	"sort"

	"ivm/internal/relation"
)

// Semantics selects between set semantics (counts are 1, duplicates
// eliminated per stratum, §5.1 of the paper) and duplicate semantics
// (SQL multiset semantics; counts are true multiplicities).
type Semantics uint8

const (
	// Set semantics: relations are sets; stored counts are numbers of
	// derivations treating lower-stratum tuples as count 1.
	Set Semantics = iota
	// Duplicate semantics: SQL multiset semantics; counts multiply across
	// strata.
	Duplicate
)

func (s Semantics) String() string {
	if s == Set {
		return "set"
	}
	return "duplicate"
}

// DB maps predicate names to counted relations. It is the storage
// substrate both for base (edb) and derived (idb) relations.
type DB struct {
	rels map[string]*relation.Relation
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{rels: make(map[string]*relation.Relation)} }

// Get returns the relation for pred, or nil if absent.
func (db *DB) Get(pred string) *relation.Relation { return db.rels[pred] }

// Ensure returns the relation for pred, creating an empty one with the
// given arity if absent.
func (db *DB) Ensure(pred string, arity int) *relation.Relation {
	r, ok := db.rels[pred]
	if !ok {
		r = relation.New(arity)
		db.rels[pred] = r
	}
	return r
}

// Put installs (replacing) the relation for pred.
func (db *DB) Put(pred string, r *relation.Relation) { db.rels[pred] = r }

// Preds returns the predicate names present, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Reader is pred's relation as a rule body reads it (SourcesAt): an
// empty one of unknown arity if db has none.
func (db *DB) Reader(pred string) relation.Reader {
	if r := db.rels[pred]; r != nil {
		return r
	}
	return relation.New(-1)
}
