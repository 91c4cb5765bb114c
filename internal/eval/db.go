// Package eval implements bottom-up evaluation of the extended Datalog
// dialect: nested-loop joins with on-demand hash indexes, stratified
// naive and semi-naive fixpoints, duplicate-counting semantics ([Mum91]),
// negation-as-filter and GROUPBY aggregation. The counting and DRed
// maintenance algorithms are built on the rule evaluator exported here.
package eval

import (
	"fmt"
	"sort"

	"ivm/internal/datalog"
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

// Delete removes pred's relation entirely.
func (db *DB) Delete(pred string) { delete(db.rels, pred) }

// Preds returns the predicate names present, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a database with cloned relations.
func (db *DB) Clone() *DB {
	c := NewDB()
	for p, r := range db.rels {
		c.rels[p] = r.Clone()
	}
	return c
}

// Reader is pred's relation as a rule body reads it (SourcesAt): an
// empty one of unknown arity if db has none.
func (db *DB) Reader(pred string) relation.Reader { return db.rel(pred) }

// rel returns pred's relation or an empty placeholder of unknown arity
// (reads of missing relations behave as empty).
func (db *DB) rel(pred string) *relation.Relation {
	if r := db.rels[pred]; r != nil {
		return r
	}
	return relation.New(-1)
}

// String renders the database deterministically for debugging and tests.
func (db *DB) String() string {
	var out string
	for _, p := range db.Preds() {
		out += fmt.Sprintf("%s = %s\n", p, db.rels[p])
	}
	return out
}

// arityOf determines the arity a program uses pred with (-1 if unseen).
func arityOf(p *datalog.Program, pred string) int {
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			return len(r.Head.Args)
		}
		for _, l := range r.Body {
			switch l.Kind {
			case datalog.LitPositive, datalog.LitNegated:
				if l.Atom.Pred == pred {
					return len(l.Atom.Args)
				}
			case datalog.LitAggregate:
				if l.Agg.Inner.Pred == pred {
					return len(l.Agg.Inner.Args)
				}
			}
		}
	}
	return -1
}
