package ivm

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// Update is a batch of base-relation changes: insertions and deletions
// with multiplicities (the paper's Δ relations, Section 3). An Update is
// built with the fluent Insert/Delete methods or parsed from a delta
// script and applied atomically by Views.Apply.
type Update struct {
	per map[string]*relation.Relation
	// err records the first construction mistake (e.g. using a predicate
	// with two different arities); Views.Apply surfaces it.
	err error
}

// NewUpdate returns an empty update.
func NewUpdate() *Update { return &Update{per: make(map[string]*relation.Relation)} }

// Err returns the first construction error, if any.
func (u *Update) Err() error { return u.err }

// ParseUpdate parses a delta script such as
//
//	+link(a, f).
//	-link(a, b).
//	link(d, f) * 2.
//
// Unsigned facts insert; '* n' sets the multiplicity (n may be negative).
func ParseUpdate(src string) (*Update, error) {
	u := NewUpdate()
	if err := parser.EachDelta(src, func(f parser.Fact) { u.add(f.Pred, f.Tuple, f.Count) }); err != nil {
		return nil, err
	}
	return u, nil
}

func (u *Update) add(pred string, t value.Tuple, count int64) {
	r, ok := u.per[pred]
	if !ok {
		r = relation.New(len(t))
		u.per[pred] = r
	}
	if r.Arity() != len(t) {
		if u.err == nil {
			u.err = fmt.Errorf("ivm: update uses %s with arity %d and %d", pred, r.Arity(), len(t))
		}
		return
	}
	r.Add(t, count)
}

// Insert adds one insertion of the tuple built from vals.
func (u *Update) Insert(pred string, vals ...any) *Update {
	u.add(pred, value.T(vals...), 1)
	return u
}

// Delete adds one deletion of the tuple built from vals.
func (u *Update) Delete(pred string, vals ...any) *Update {
	u.add(pred, value.T(vals...), -1)
	return u
}

// InsertTuple adds count insertions (or deletions, if count is negative)
// of t.
func (u *Update) InsertTuple(pred string, t Tuple, count int64) *Update {
	u.add(pred, t, count)
	return u
}

// Merge folds another update's changes into u.
func (u *Update) Merge(o *Update) *Update {
	for pred, r := range o.per {
		dst, ok := u.per[pred]
		if !ok {
			dst = relation.New(r.Arity())
			u.per[pred] = dst
		}
		dst.MergeDelta(r)
	}
	return u
}

// Empty reports whether the update contains no net changes.
func (u *Update) Empty() bool {
	for _, r := range u.per {
		if !r.Empty() {
			return false
		}
	}
	return true
}

// Preds returns the base predicates the update touches, sorted.
func (u *Update) Preds() []string {
	out := make([]string, 0, len(u.per))
	for p := range u.per {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// nonFinite returns a rendering of the first fact whose tuple holds a
// NaN or ±Inf float. Non-finite floats have no parseable literal
// syntax, so a logged delta script containing one could never replay;
// store-bound views reject such updates up front.
func (u *Update) nonFinite() (fact string, found bool) {
	for pred, r := range u.per {
		r.Each(func(row relation.Row) {
			if found {
				return
			}
			for _, val := range row.Tuple {
				if val.Kind() == value.Float {
					if f := val.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
						fact, found = fmt.Sprintf("%s%s", pred, row.Tuple), true
						return
					}
				}
			}
		})
		if found {
			return fact, true
		}
	}
	return "", false
}

// deltas exposes the raw per-predicate delta relations to the engines.
func (u *Update) deltas() map[string]*relation.Relation {
	out := make(map[string]*relation.Relation, len(u.per))
	for pred, r := range u.per {
		if !r.Empty() {
			out[pred] = r
		}
	}
	return out
}

// String renders the update as a delta script.
func (u *Update) String() string {
	var sb strings.Builder
	for _, pred := range u.Preds() {
		for _, row := range u.per[pred].SortedRows() {
			switch {
			case row.Count == 1:
				fmt.Fprintf(&sb, "+%s%s.\n", pred, row.Tuple)
			case row.Count == -1:
				fmt.Fprintf(&sb, "-%s%s.\n", pred, row.Tuple)
			case row.Count > 0:
				fmt.Fprintf(&sb, "+%s%s * %d.\n", pred, row.Tuple, row.Count)
			default:
				fmt.Fprintf(&sb, "-%s%s * %d.\n", pred, row.Tuple, -row.Count)
			}
		}
	}
	return sb.String()
}

// UpdateFromRelations builds an Update directly from signed delta
// relations (used by the benchmark harness and workload generators).
func UpdateFromRelations(deltas map[string]*relation.Relation) *Update {
	u := NewUpdate()
	for pred, r := range deltas {
		cp := r.Clone()
		u.per[pred] = cp
	}
	return u
}
