package ivm

import (
	"fmt"
	"slices"
	"sync"

	"ivm/internal/relation"
)

// ChangeSet maps derived predicates to the signed count deltas an update
// produced (positive counts inserted derivations, negative deleted).
//
// A ChangeSet is shared: the Apply caller it answers, every
// OnChange/OnCommit handler and the serving layer's encoder read the
// same one, possibly concurrently. Its read side is therefore built at
// most once per predicate — one sort that also splits inserted from
// deleted — and every accessor serves that pass.
type ChangeSet struct {
	perPred map[string]*relation.Relation
	// version is the snapshot version in which these changes became
	// visible (stamped at publish time).
	version uint64

	// preds is the read side, one entry per changed predicate in name
	// order, laid out on first use (perPred is final by then: the hidden
	// predicates are dropped as the ChangeSet is made, changeSetLocked).
	once  sync.Once
	preds []predChanges
}

// predChanges is one predicate's changes, sorted and split once.
type predChanges struct {
	pred string
	rel  *relation.Relation

	once sync.Once
	// ins and del are the two halves of one slab: the rows whose counts
	// rose, then the rows whose counts fell (counts made positive), each
	// in tuple order. Read-only once built.
	ins, del []Row
}

// split returns the predicate's inserted and deleted rows, sorting the
// delta relation the first time it is asked.
func (p *predChanges) split() (ins, del []Row) {
	p.once.Do(func() {
		rows := p.rel.Rows()
		slices.SortFunc(rows, func(a, b Row) int {
			if (a.Count < 0) != (b.Count < 0) {
				if a.Count < 0 {
					return 1
				}
				return -1
			}
			return a.Tuple.Compare(b.Tuple)
		})
		k := len(rows)
		for i, row := range rows {
			if row.Count < 0 {
				k = min(k, i)
				rows[i].Count = -row.Count
			}
		}
		if k > 0 {
			p.ins = rows[:k:k]
		}
		if k < len(rows) {
			p.del = rows[k:]
		}
	})
	return p.ins, p.del
}

// Version returns the snapshot version in which this change set's
// effects became visible: Snapshot handles with Snapshot.Version() >=
// this value observe the update (0 for change sets not produced by a
// published maintenance pass).
func (c *ChangeSet) Version() uint64 { return c.version }

// index returns the per-predicate read side in name order.
func (c *ChangeSet) index() []predChanges {
	c.once.Do(func() {
		if len(c.perPred) == 0 {
			return
		}
		names := make([]string, 0, len(c.perPred))
		for pred := range c.perPred {
			names = append(names, pred)
		}
		slices.Sort(names)
		c.preds = make([]predChanges, len(names))
		for i, pred := range names {
			c.preds[i].pred, c.preds[i].rel = pred, c.perPred[pred]
		}
	})
	return c.preds
}

// changes returns pred's read side (nil if pred did not change).
func (c *ChangeSet) changes(pred string) *predChanges {
	if _, ok := c.perPred[pred]; !ok {
		return nil
	}
	idx := c.index()
	for i := range idx {
		if idx[i].pred == pred {
			return &idx[i]
		}
	}
	return nil
}

// Preds returns the predicates with changes, sorted.
func (c *ChangeSet) Preds() []string {
	idx := c.index()
	out := make([]string, len(idx))
	for i := range idx {
		out[i] = idx[i].pred
	}
	return out
}

// Each calls fn for every changed predicate, in name order, with the
// rows whose counts increased and the rows whose counts decreased
// (counts reported positive), each in tuple order. The slices are the
// change set's own — shared with every other reader, so fn must not
// modify them; Inserted and Deleted return copies.
func (c *ChangeSet) Each(fn func(pred string, inserted, deleted []Row)) {
	idx := c.index()
	for i := range idx {
		ins, del := idx[i].split()
		fn(idx[i].pred, ins, del)
	}
}

// Delta returns the signed rows for pred, sorted (nil if unchanged).
func (c *ChangeSet) Delta(pred string) []Row {
	p := c.changes(pred)
	if p == nil {
		return nil
	}
	// Inserted and deleted tuples are disjoint and each half is sorted:
	// merging them restores tuple order over the whole delta.
	ins, del := p.split()
	out := make([]Row, 0, len(ins)+len(del))
	for len(ins) > 0 && len(del) > 0 {
		if ins[0].Tuple.Compare(del[0].Tuple) < 0 {
			out, ins = append(out, ins[0]), ins[1:]
		} else {
			out, del = append(out, del[0].WithCount(-del[0].Count)), del[1:]
		}
	}
	out = append(out, ins...)
	for _, row := range del {
		out = append(out, row.WithCount(-row.Count))
	}
	return out
}

// Inserted returns the tuples whose counts increased for pred.
func (c *ChangeSet) Inserted(pred string) []Row {
	p := c.changes(pred)
	if p == nil {
		return nil
	}
	ins, _ := p.split()
	return slices.Clone(ins)
}

// Deleted returns the tuples whose counts decreased for pred (counts are
// reported positive).
func (c *ChangeSet) Deleted(pred string) []Row {
	p := c.changes(pred)
	if p == nil {
		return nil
	}
	_, del := p.split()
	return slices.Clone(del)
}

// Empty reports whether no view changed.
func (c *ChangeSet) Empty() bool { return len(c.perPred) == 0 }

// String renders the change set in the paper's Δ notation.
func (c *ChangeSet) String() string {
	s := ""
	for _, pred := range c.Preds() {
		s += fmt.Sprintf("Δ(%s) = %s\n", pred, c.perPred[pred])
	}
	return s
}
