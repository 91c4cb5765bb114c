// Package relation implements counted relations: multisets of tuples where
// each tuple carries a signed derivation count, exactly the representation
// of Section 3 of Gupta/Mumick/Subrahmanian (SIGMOD 1993).
//
// Positive counts are numbers of alternative derivations (or multiset
// multiplicities); in delta relations, negative counts denote deleted
// derivations. The ⊎ operator (UnionPlus / MergeDelta) adds counts and drops
// tuples whose counts cancel to zero. Joins multiply counts.
package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"ivm/internal/value"
)

// Row pairs a tuple with its signed derivation count.
type Row struct {
	Tuple value.Tuple
	Count int64
	// key caches the tuple's canonical encoding when the row came out of
	// a relation; Key() falls back to computing it. A tuple is keyed once,
	// when its row is first stored: every later merge of the row
	// (AddRow, MergeDelta, Materialize) reuses this string. Code that
	// holds a keyed Row must therefore never reassign its Tuple.
	key string
}

// Key returns the row's canonical tuple encoding, cached when the row
// was produced by a Relation.
func (r Row) Key() string {
	if r.key != "" {
		return r.key
	}
	return r.Tuple.Key()
}

// RowFromKey builds the zero-count keyed row of the arity-value tuple that
// kb encodes (Tuple.AppendKey's rendering): one copy of kb becomes the
// row's key, and the tuple's strings alias that copy, never kb.
func RowFromKey(kb []byte, arity int) (Row, error) {
	key := string(kb)
	t, err := value.TupleFromKey(key, arity)
	return Row{Tuple: t, key: key}, err
}

// WithCount returns the row with its count replaced, keeping the cached
// key — how a consumer of delta rows re-adds a tuple with another count
// (±1 set transitions) without encoding it again.
func (r Row) WithCount(count int64) Row {
	r.Count = count
	return r
}

// Relation is a counted relation. The zero value is not usable; call New.
// A Relation never stores a row with Count == 0.
//
// Concurrency: any number of goroutines may *read* a Relation
// concurrently (Count/Has/Each/Lookup/Rows), including Lookups that
// lazily build an index — the build is internally synchronized. Mutations
// (Add/Set/Delete/MergeDelta) must not overlap reads or other mutations:
// the one writer mutates engine state only, and what readers pin (a
// published version) is frozen.
type Relation struct {
	arity int32 // one word with frozen: 144 bytes

	// frozen marks an immutable relation (a published snapshot version):
	// any mutation panics. Lazy index builds remain allowed — they are
	// internally synchronized and do not change the relation's content.
	frozen bool
	rows   table

	// idx holds the lazy hash indexes, a few at most, told apart by their
	// columns. idxMu guards idx against concurrent lazy builds from reader
	// goroutines. A mutation reads idx without it: mutations never overlap
	// reads, so only a reader's build can race a reader.
	idx   []*index
	idxMu sync.RWMutex
	lend  [2]*Relation // what AddDerived borrows stored rows from (BorrowFrom)

	// stats holds the lazy per-column distinct sketches (see stats.go),
	// with the same build-once-then-incremental discipline as idx.
	stats   *tableStats
	statsMu sync.RWMutex
}

// cell is a stored row without what the relation already knows: every
// tuple in r.rows has exactly r.arity values (insert checks it, and arity
// is fixed by the first insert), so a tuple is kept as the pointer to its
// backing array — which keeps the array alive — and read back by row with
// len == cap == arity: an append to a read-back tuple always copies. The
// key string is kept the same way, as the pointer to its bytes and a
// 32-bit length, which leaves room for the key's hash (see table) in the
// 32 bytes of a cell; a Row is 64. With the key at hand a row read back,
// and every later merge of it, is never encoded again. A cell is occupied
// iff count != 0.
type cell struct {
	kp    *byte
	vals  *value.Value
	count int64
	kl, h uint32
}

// key is the string newCell packed; kp keeps its immutable bytes alive.
func (c *cell) key() string { return unsafe.String(c.kp, c.kl) }

// newCell packs a keyed row; h is the hash of row.key.
func newCell(row Row, h uint32) cell {
	if uint64(len(row.key)) > math.MaxUint32 {
		panic("relation: tuple key longer than 4 GiB")
	}
	return cell{kp: unsafe.StringData(row.key), kl: uint32(len(row.key)), h: h, vals: unsafe.SliceData(row.Tuple), count: row.Count}
}

// row rebuilds the Row of a cell stored in r.
func (r *Relation) row(c cell) Row {
	return Row{Tuple: unsafe.Slice(c.vals, r.arity), Count: c.count, key: c.key()}
}

// New returns an empty relation with the given arity. Arity -1 means
// "unknown until the first insert" (useful for generic plumbing). Its
// cells are made by the first insert.
func New(arity int) *Relation {
	return &Relation{arity: int32(arity), rows: newTable(0)}
}

// FromRows builds a relation from rows, merging duplicate tuples' counts.
func FromRows(arity int, rows []Row) *Relation {
	r := New(arity)
	for _, row := range rows {
		r.AddRow(row)
	}
	return r
}

// Arity returns the relation's arity (-1 if still unknown).
func (r *Relation) Arity() int { return int(r.arity) }

// Len returns the number of distinct tuples (not the sum of counts).
func (r *Relation) Len() int { return r.rows.n }

// TotalCount returns the sum of all counts (the multiset cardinality).
func (r *Relation) TotalCount() int64 {
	var n int64
	for _, c := range r.rows.cells {
		n += c.count
	}
	return n
}

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.rows.n == 0 }

// Count returns the stored count for t (0 if absent). Like every probe
// it encodes t into a stack buffer and probes the table with the bytes,
// which allocates nothing.
func (r *Relation) Count(t value.Tuple) int64 {
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	return countAt(r, hashBytes(kb), kb)
}

// countAt is the count stored under key k, whose hash is h (0 if absent).
func countAt[K string | []byte](r *Relation, h uint32, k K) int64 {
	if i := find(&r.rows, h, k); i >= 0 {
		return r.rows.cells[i].count
	}
	return 0
}

// Stored returns the row stored under the canonical key kb, for callers
// that hold a tuple's encoding rather than the tuple. Allocates nothing.
func (r *Relation) Stored(kb []byte) (Row, bool) {
	if i := find(&r.rows, hashBytes(kb), kb); i >= 0 {
		return r.row(r.rows.cells[i]), true
	}
	return Row{}, false
}

// Has reports whether t is present with a positive count. This is the
// truth test used for negated subgoals: a tuple is "true" iff count > 0.
func (r *Relation) Has(t value.Tuple) bool {
	return r.Count(t) > 0
}

// Freeze marks the relation immutable: every subsequent Add, Set,
// Delete or MergeDelta panics. Snapshot versions published to
// concurrent readers are frozen so a maintenance bug that touched a
// published relation fails loudly instead of corrupting readers. Lazy
// index builds (Lookup) stay legal; Clone returns a mutable copy.
func (r *Relation) Freeze() { r.frozen = true }

// Frozen reports whether the relation has been frozen.
func (r *Relation) Frozen() bool { return r.frozen }

func (r *Relation) mutable() {
	if r.frozen {
		panic("relation: mutation of a frozen relation (published snapshot versions are immutable)")
	}
}

// Add merges (t, count) into the relation, removing the tuple if the
// resulting count is zero. Adding with count 0 is a no-op. The relation
// keeps t when it stores a new row; a key string is built only then.
func (r *Relation) Add(t value.Tuple, count int64) {
	if count == 0 {
		return
	}
	r.mutable()
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	h := hashBytes(kb)
	if i := find(&r.rows, h, kb); i >= 0 {
		r.bump(i, count)
		return
	}
	r.insert(Row{Tuple: t, Count: count, key: string(kb)}, h)
}

// Origin says where AddDerived found a derived tuple's row: r held it
// (counts added), a lender did, or it was built, tuple and key.
type Origin uint8

const (
	Merged Origin = iota
	Borrowed
	Built
)

// BorrowFrom names r's lenders (either may be nil), whose rows AddDerived
// takes instead of building a tuple they hold: for an engine's output, the
// stored head relation and its pending net. A lender must not be mutated
// while r is filled; borrowed tuples and keys are immutable, as all are.
func (r *Relation) BorrowFrom(stored, pending *Relation) { r.lend = [2]*Relation{stored, pending} }

// AddDerived is Add for a tuple in scratch storage, of which r keeps
// nothing: a tuple and a key are built only for a row neither r nor a
// lender holds. A borrowed cell carries count, never the lender's.
func (r *Relation) AddDerived(t value.Tuple, count int64) Origin {
	if count == 0 {
		return Merged
	}
	r.mutable()
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	h := hashBytes(kb)
	if i := find(&r.rows, h, kb); i >= 0 {
		r.bump(i, count)
		return Merged
	}
	for _, l := range r.lend {
		if l == nil {
			continue
		}
		if i := find(&l.rows, h, kb); i >= 0 {
			r.insert(l.row(l.rows.cells[i]).WithCount(count), h)
			return Borrowed
		}
	}
	r.insert(Row{Tuple: t.Clone(), Count: count, key: string(kb)}, h)
	return Built
}

// AddRow is Add for a row that came out of a relation: it reuses the
// row's cached key instead of encoding the tuple again. Rows built by
// hand (no cached key) take the Add path.
func (r *Relation) AddRow(in Row) {
	if in.key == "" {
		r.Add(in.Tuple, in.Count)
		return
	}
	r.addHashed(in, hashString(in.key))
}

// addHashed is AddRow for a keyed row whose key is known to hash to h.
func (r *Relation) addHashed(in Row, h uint32) {
	if in.Count == 0 {
		return
	}
	r.mutable()
	if i := find(&r.rows, h, in.key); i >= 0 {
		r.bump(i, in.Count)
		return
	}
	r.insert(in, h)
}

// insert stores a keyed row whose tuple is not yet present; h hashes its key.
func (r *Relation) insert(row Row, h uint32) {
	if r.arity < 0 {
		r.arity = int32(len(row.Tuple))
	} else if len(row.Tuple) != r.Arity() {
		panic(fmt.Sprintf("relation: arity mismatch: tuple %v into arity-%d relation", row.Tuple, r.arity))
	}
	r.rows.insert(newCell(row, h))
	r.idxAdd(row, row.Count, false)
	r.statsAdd(row.Tuple, 1)
}

// bump adds delta to the stored cell i, removing it when the count cancels.
func (r *Relation) bump(i int, delta int64) {
	r.rows.cells[i].count += delta
	row := r.row(r.rows.cells[i])
	if row.Count == 0 {
		r.rows.del(i)
		r.statsAdd(row.Tuple, -1)
	}
	r.idxAdd(row, delta, true)
}

// Set forces the count of t to exactly count (removing it when 0).
func (r *Relation) Set(t value.Tuple, count int64) {
	r.Add(t, count-r.Count(t))
}

// Delete removes the tuple entirely regardless of count.
func (r *Relation) Delete(t value.Tuple) {
	r.mutable()
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	if i := find(&r.rows, hashBytes(kb), kb); i >= 0 {
		r.bump(i, -r.rows.cells[i].count)
	}
}

// Each calls f for every row, in unspecified order. f must not mutate the
// relation — a delete moves cells back under the cursor, an insert may move
// the table — and no call site does (audited for EXPERIMENTS.md E24).
func (r *Relation) Each(f func(Row)) {
	for _, c := range r.rows.cells {
		if c.count != 0 {
			f(r.row(c))
		}
	}
}

// Next returns the first row stored at position i or after and the
// position after it, or next < 0 past the last row: Each for a caller
// that keeps no closure, under the same rule.
//
//	for row, i := r.Next(0); i >= 0; row, i = r.Next(i) { … }
func (r *Relation) Next(i int) (row Row, next int) {
	for ; i < len(r.rows.cells); i++ {
		if c := r.rows.cells[i]; c.count != 0 {
			return r.row(c), i + 1
		}
	}
	return Row{}, -1
}

// Rows returns all rows in unspecified order.
func (r *Relation) Rows() []Row {
	out := make([]Row, 0, r.rows.n)
	r.Each(func(row Row) { out = append(out, row) })
	return out
}

// SortedRows returns rows ordered lexicographically by tuple under
// value.Compare, which ties no two distinct rows: one order whatever order
// they went in, for deterministic output and golden tests.
func (r *Relation) SortedRows() []Row {
	out := r.Rows()
	slices.SortFunc(out, func(a, b Row) int { return a.Tuple.Compare(b.Tuple) })
	return out
}

// Clone returns a deep-enough copy (tuples are immutable and shared).
// Indexes are not copied; the table is made to size (a memmove if r's is).
func (r *Relation) Clone() *Relation {
	return &Relation{arity: r.arity, rows: r.rows.clone(sizedCells(r.rows.n))}
}

// NewSized is New with the table made for n rows, which then go in
// without growing it. n must be an exact count: a table sized from an
// upper bound stays that large for the life of the relation (counting's
// setTransitions and DRed's signPart count first).
func NewSized(arity, n int) *Relation {
	return &Relation{arity: int32(arity), rows: newTable(sizedCells(n))}
}

// Reset empties r for reuse as a scratch output, keeping its arity and
// dropping its indexes, statistics and lenders. A cleared table keeps the
// cells of the largest content it has held, so a relation that is Reset
// must not outlive the operation that fills it.
func (r *Relation) Reset() {
	r.mutable()
	clear(r.rows.cells)
	r.rows.n = 0
	r.lend = [2]*Relation{}
	r.idx, r.stats = nil, nil
}

// MergeDelta folds delta into r using the ⊎ operator of Section 3:
// counts add, zero-count tuples vanish. r is modified in place. Stored
// rows carry their keys and hashes: no tuple is encoded, no key hashed.
func (r *Relation) MergeDelta(delta *Relation) {
	for _, c := range delta.rows.cells {
		if c.count != 0 {
			r.addHashed(delta.row(c), c.h)
		}
	}
}

// UnionPlus returns a ⊎ b as a fresh relation, leaving both inputs intact.
func UnionPlus(a, b *Relation) *Relation {
	out := a.Clone()
	out.MergeDelta(b)
	return out
}

// Negate returns a copy of r with all counts sign-flipped (the deletion
// image of a relation).
func (r *Relation) Negate() *Relation {
	out := r.Clone()
	for i := range out.rows.cells {
		out.rows.cells[i].count = -out.rows.cells[i].count
	}
	return out
}

// ToSet returns the set image of r: every tuple with positive count maps
// to count 1 (tuples with non-positive counts are dropped). This is the
// set(·) function of Algorithm 4.1 statement (2).
func (r *Relation) ToSet() *Relation {
	n := 0
	for _, c := range r.rows.cells {
		if c.count > 0 {
			n++
		}
	}
	out := NewSized(r.Arity(), n)
	for _, c := range r.rows.cells {
		if c.count > 0 {
			c.count = 1
			out.rows.place(c)
		}
	}
	return out
}

// Diff returns new − old as a signed count delta: what merged into old
// makes new. A tuple old holds keeps old's row, so the delta lends the
// stored tuple rather than a copy of it.
func Diff(old, new *Relation) *Relation {
	out := New(new.Arity())
	old.Each(func(row Row) {
		if c := new.Count(row.Tuple) - row.Count; c != 0 {
			out.AddRow(row.WithCount(c))
		}
	})
	new.Each(func(row Row) {
		if old.Count(row.Tuple) == 0 {
			out.AddRow(row)
		}
	})
	return out
}

// SetDiff returns set(a) − set(b) as a signed delta: tuples in a but not b
// get +1, tuples in b but not a get −1. This implements statement (2) of
// Algorithm 4.1 (the cascade delta under set semantics).
func SetDiff(a, b *Relation) *Relation {
	out := New(pickArity(a, b))
	if b.rows.n > 0 && b.arity != out.arity { // out takes cells of both
		panic(fmt.Sprintf("relation: SetDiff of arity-%d and arity-%d relations", a.arity, b.arity))
	}
	for _, c := range a.rows.cells {
		if c.count > 0 && countAt(b, c.h, c.key()) <= 0 {
			c.count = 1
			out.rows.insert(c)
		}
	}
	for _, c := range b.rows.cells {
		if c.count > 0 && countAt(a, c.h, c.key()) <= 0 {
			c.count = -1
			out.rows.insert(c)
		}
	}
	return out
}

// Equal reports whether two relations contain exactly the same tuples with
// the same counts.
func Equal(a, b *Relation) bool {
	if a.rows.n != b.rows.n {
		return false
	}
	for _, c := range a.rows.cells {
		if c.count != 0 && countAt(b, c.h, c.key()) != c.count {
			return false
		}
	}
	return true
}

// EqualAsSets reports whether a and b have the same positive-count tuples.
func EqualAsSets(a, b *Relation) bool {
	for _, c := range a.rows.cells {
		if c.count > 0 && countAt(b, c.h, c.key()) <= 0 {
			return false
		}
	}
	for _, c := range b.rows.cells {
		if c.count > 0 && countAt(a, c.h, c.key()) <= 0 {
			return false
		}
	}
	return true
}

func pickArity(a, b *Relation) int {
	if a.arity >= 0 {
		return a.Arity()
	}
	return b.Arity()
}

// String renders the relation like the paper: {ab 2, mn -1} with tuples in
// sorted order.
func (r *Relation) String() string {
	rows := r.SortedRows()
	var sb strings.Builder
	sb.WriteByte('{')
	for i, row := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(row.Tuple.String())
		if row.Count != 1 {
			fmt.Fprintf(&sb, " %d", row.Count)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
