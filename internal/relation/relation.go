// Package relation implements counted relations: multisets of tuples where
// each tuple carries a signed derivation count, exactly the representation
// of Section 3 of Gupta/Mumick/Subrahmanian (SIGMOD 1993).
//
// Positive counts are numbers of alternative derivations (or multiset
// multiplicities); in delta relations, negative counts denote deleted
// derivations. The ⊎ operator (MergeDelta) adds counts and drops
// tuples whose counts cancel to zero. Joins multiply counts.
package relation

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
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
	row := alloc(kb, arity, nil)
	return row, value.DecodeKey(row.Tuple, row.key)
}

// KeyedRow returns the keyed row of a copy of t with count (alloc).
func KeyedRow(t value.Tuple, count int64) Row {
	var buf [value.KeyScratch]byte
	return alloc(t.AppendKey(buf[:0]), len(t), t).WithCount(count)
}

// alloc returns the zero-count row keyed kb of a copy of vals, or of zeros,
// len == cap == arity, as one block (newBlock): the values first, so that
// the collector scans their strings, then the key's bytes (behind).
func alloc[K string | []byte](kb K, arity int, vals value.Tuple) Row {
	b := newBlock(arity, (len(kb)+7)/8)
	kp := behind((*value.Value)(b), arity)
	copy(unsafe.Slice(kp, len(kb)), kb)
	row := Row{Tuple: unsafe.Slice((*value.Value)(b), arity), key: unsafe.String(kp, len(kb))}
	copy(row.Tuple, vals)
	return row
}

// behind is where the key of a block whose arity values start at vals is.
func behind(vals *value.Value, arity int) *byte {
	return (*byte)(unsafe.Add(unsafe.Pointer(vals), arity*int(unsafe.Sizeof(value.Value{}))))
}

var blocks = [...][8]func() unsafe.Pointer{words[[1]value.Value](), words[[2]value.Value](), words[[3]value.Value](), words[[4]value.Value]()}

func words[V any]() [8]func() unsafe.Pointer {
	return [...]func() unsafe.Pointer{block[V, [1]uint64], block[V, [2]uint64], block[V, [3]uint64], block[V, [4]uint64], block[V, [5]uint64], block[V, [6]uint64], block[V, [7]uint64], block[V, [8]uint64]}
}

func block[V, K any]() unsafe.Pointer {
	return unsafe.Pointer(new(struct {
		vals V
		key  K
	}))
}

// shapes holds the block types newBlock has built, by arity and words.
var shapes = struct {
	sync.RWMutex
	m map[[2]int]reflect.Type
}{m: map[[2]int]reflect.Type{}}

// newBlock allocates a block of arity values and at least w key words: of
// blocks[arity-1][w-1] where that shape is, else of the type {[arity]
// value.Value; [w']uint64}, w' the power of two at or above w (0 if w is:
// the shift overflows), which it builds once per shape.
func newBlock(arity, w int) unsafe.Pointer {
	if arity >= 1 && arity <= len(blocks) && w >= 1 && w <= len(blocks[0]) {
		return blocks[arity-1][w-1]()
	}
	w = 1 << bits.Len(uint(w-1))
	shapes.RLock()
	t, ok := shapes.m[[2]int{arity, w}]
	shapes.RUnlock()
	if !ok {
		t = reflect.StructOf([]reflect.StructField{
			{Name: "V", Type: reflect.ArrayOf(arity, reflect.TypeFor[value.Value]())},
			{Name: "K", Type: reflect.ArrayOf(w, reflect.TypeFor[uint64]())},
		})
		shapes.Lock()
		shapes.m[[2]int{arity, w}] = t
		shapes.Unlock()
	}
	return reflect.New(t).UnsafePointer()
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
	arity int32 // one word with frozen and viewed: 104 bytes

	// frozen marks an immutable relation (a published snapshot version):
	// any mutation panics. Lazy index builds remain allowed — they are
	// internally synchronized and do not change the relation's content.
	frozen bool
	// viewed says an index holds a view (index.go) the next mutation drops.
	viewed bool
	rows   table

	// idx holds the lazy hash indexes, a few at most, told apart by their
	// columns, and stats the lazy per-column distinct sketches (stats.go),
	// kept the same way. idxMu guards both against concurrent lazy builds
	// from reader goroutines. A mutation reads them without it: mutations
	// never overlap reads, so only a reader's build can race a reader.
	idx   []*index
	stats *tableStats
	idxMu sync.RWMutex
	// What AddDerived borrows rows from (BorrowFrom).
	lendStored *Stored
	lendNet    *Relation
}

// cell is a stored row without what the relation already knows: every
// tuple in r.rows has exactly r.arity values (insert checks it, and arity
// is fixed by the first insert), so a tuple is kept as the pointer to its
// backing array — which keeps the array alive — and read back by row with
// len == cap == arity: an append to a read-back tuple always copies. Every
// stored row is one block, its values and then its key's bytes (alloc), so
// the key is kept as its 32-bit length alone, read behind the values; that
// leaves room for the key's hash (see table) in the 24 bytes of a cell; a
// Row is 48. With the key at hand a row read back, and every later merge
// of it, is never encoded again.
type cell struct {
	vals  *value.Value
	count int64
	kl, h uint32
}

// key is the kl bytes behind the cell's arity values, in their block.
func (c *cell) key(arity int32) string { return unsafe.String(behind(c.vals, int(arity)), c.kl) }

// ref is a cell without its count or hash: 16 bytes, which Refs holds.
type ref struct {
	vals *value.Value
	kl   uint32
}

// row reads back the row of arity values that x refers to, at count 1.
func (x *ref) row(arity int32) Row {
	return Row{Tuple: unsafe.Slice(x.vals, arity), Count: 1, key: unsafe.String(behind(x.vals, int(arity)), x.kl)}
}

// newCell packs a keyed row; h is the hash of row.key. It keeps every
// stored row one block: a row whose key is not behind its values is
// copied into one first.
func newCell(row Row, h uint32) cell {
	if uint64(len(row.key)) > math.MaxUint32 {
		panic("relation: tuple key longer than 4 GiB")
	}
	vals := unsafe.SliceData(row.Tuple)
	if row.key != "" && unsafe.StringData(row.key) != behind(vals, len(row.Tuple)) {
		vals = unsafe.SliceData(alloc(row.key, len(row.Tuple), row.Tuple).Tuple)
	}
	return cell{kl: uint32(len(row.key)), h: h, vals: vals, count: row.Count}
}

// At returns the row stored at position p, 0 ≤ p < Len(): the relation
// in Each's order, for a caller that keeps no closure.
func (r *Relation) At(p int) Row { return r.row(r.rows.cells[p].cell) }

// row rebuilds the Row of a cell stored in r.
func (r *Relation) row(c cell) Row {
	return Row{Tuple: unsafe.Slice(c.vals, r.arity), Count: c.count, key: c.key(r.arity)}
}

// New returns an empty relation with the given arity. Arity -1 means
// "unknown until the first insert" (useful for generic plumbing). Its
// cells are made by the first insert.
func New(arity int) *Relation {
	return &Relation{arity: int32(arity)}
}

// Arity returns the relation's arity (-1 if still unknown).
func (r *Relation) Arity() int { return int(r.arity) }

// Len returns the number of distinct tuples (not the sum of counts).
func (r *Relation) Len() int { return len(r.rows.cells) }

// TotalCount returns the sum of all counts (the multiset cardinality).
func (r *Relation) TotalCount() int64 {
	var n int64
	for _, c := range r.rows.cells {
		n += c.count
	}
	return n
}

// Held is the bytes r, a Δ merged into a stored relation, holds beside it:
// its header, its cells, and the key and values of each row whose count
// is negative, which no stored row lends (a link drops its indexes when
// it leaves its version chain).
func (r *Relation) Held() int {
	n := int(unsafe.Sizeof(*r)) + cap(r.rows.cells)*int(unsafe.Sizeof(entry{}))
	for _, c := range r.rows.cells {
		if c.count < 0 {
			n += int(c.kl) + int(r.arity)*int(unsafe.Sizeof(value.Value{}))
		}
	}
	return n
}

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return len(r.rows.cells) == 0 }

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
	if i := find(r, h, k); i >= 0 {
		return r.rows.cells[i].count
	}
	return 0
}

// Stored returns the row stored under the canonical key kb, for callers
// that hold a tuple's encoding rather than the tuple. Allocates nothing.
func (r *Relation) Stored(kb []byte) (Row, bool) { return held(r, hashBytes(kb), kb) }

// held returns the row stored under key k, hashed to h (none in a nil r).
func held[K string | []byte](r *Relation, h uint32, k K) (Row, bool) {
	if r != nil {
		if i := find(r, h, k); i >= 0 {
			return r.At(i), true
		}
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
func (r *Relation) Freeze() { r.frozen, r.lendStored, r.lendNet = true, nil, nil }

// Frozen reports whether the relation has been frozen.
func (r *Relation) Frozen() bool { return r.frozen }

func (r *Relation) mutable() {
	if r.frozen {
		panic("relation: mutation of a frozen relation (published snapshot versions are immutable)")
	}
}

// Add merges (t, count) into the relation, removing the tuple if the
// resulting count is zero. Adding with count 0 is a no-op. The relation
// keeps nothing of t: a new row is a copy, built or borrowed (AddDerived).
func (r *Relation) Add(t value.Tuple, count int64) { r.AddDerived(t, count) }

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
// Freezing r forgets them.
func (r *Relation) BorrowFrom(stored *Stored, pending *Relation) {
	r.lendStored, r.lendNet = stored, pending
}

// AddDerived is Add, saying where it found the row: a tuple and a key
// are built only for a row neither r nor a lender holds. The stored lender lends, after its state and the pending
// net, the base's row the state has deleted: a row that comes back is
// base's own again, and settles at its base place. A borrowed cell carries
// count, never the lender's.
func (r *Relation) AddDerived(t value.Tuple, count int64) Origin {
	if count == 0 {
		return Merged
	}
	r.mutable()
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	h := hashBytes(kb)
	if i := find(r, h, kb); i >= 0 {
		r.bump(i, count)
		return Merged
	}
	row, ok := storedRow(r.lendStored, h, kb)
	if row.Count == 0 { // absent, or base's row the state deleted
		if net, held := held(r.lendNet, h, kb); held {
			row, ok = net, true
		}
	}
	if ok {
		r.insert(row.WithCount(count), h)
		return Borrowed
	}
	r.insert(alloc(kb, len(t), t).WithCount(count), h)
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
	if i := find(r, h, in.key); i >= 0 {
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
	r.unview()
	p := r.rows.insert(newCell(row, h))
	r.idxInsert(row.Tuple, p)
	r.statsAdd(row.Tuple, 1)
}

// bump adds delta to the stored cell i, removing it when the count
// cancels. Only a removal touches the indexes, which hold positions.
func (r *Relation) bump(i int, delta int64) {
	r.unview()
	if r.rows.cells[i].count += delta; r.rows.cells[i].count != 0 {
		return
	}
	t := r.At(i).Tuple
	r.idxDelete(t, i)
	r.rows.del(i)
	r.statsAdd(t, -1)
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
	if i := find(r, hashBytes(kb), kb); i >= 0 {
		r.bump(i, -r.rows.cells[i].count)
	}
}

// Each calls f for every row, in the order the relation's history left
// them: insertion order, where a removed row's place went to the row that
// was last. f must not mutate the relation — a delete moves the last row
// under the cursor, an insert may move the table — and no call site does
// (audited for EXPERIMENTS.md E24).
func (r *Relation) Each(f func(Row)) {
	for _, c := range r.rows.cells {
		f(r.row(c.cell))
	}
}

// Rows returns all rows in Each's order.
func (r *Relation) Rows() []Row {
	out := make([]Row, 0, r.Len())
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

// Clone returns a deep-enough copy (tuples are immutable and shared), in
// r's order. Indexes are not copied; the table is made to size (two
// memmoves if r's is).
func (r *Relation) Clone() *Relation {
	return &Relation{arity: r.arity, rows: r.rows.clone(r.Len())}
}

// NewSized is New with the table made for n rows, which then go in
// without growing it. n must be an exact count: a table sized from an
// upper bound stays that large for the life of the relation (Pick counts
// first; counting's Δ(head) grows in a table it reuses and publishes a
// Clone, which is made to size).
func NewSized(arity, n int) *Relation {
	return &Relation{arity: int32(arity), rows: table{cells: make([]entry, 0, n)}}
}

// Pick returns the rows of r to which count, given a row's position and
// count, gives a nonzero count, with that count, in r's order. One pass
// counts them and a second fills a table made to size, placing each cell
// by the hash it carries.
func (r *Relation) Pick(count func(p int, c int64) int64) *Relation {
	n := 0
	for p, c := range r.rows.cells {
		if count(p, c.count) != 0 {
			n++
		}
	}
	out := NewSized(r.Arity(), n)
	for p, c := range r.rows.cells {
		if c.count = count(p, c.count); c.count != 0 {
			out.rows.insert(c.cell)
		}
	}
	return out
}

// Trim remakes r's table at exactly its row count, as NewSized lays one
// out. Rows keep their positions, so r's indexes stay as they are.
func (r *Relation) Trim() {
	r.mutable()
	if cap(r.rows.cells) != r.Len() {
		r.rows = r.rows.clone(r.Len())
	}
}

// Reset empties r for reuse as a scratch output, keeping its arity and
// dropping its indexes, statistics and lenders. A cleared table keeps the
// arrays of the largest content it has held, so a relation that is Reset
// must not outlive the operation that fills it unless bounded (Stored.Keeps).
func (r *Relation) Reset() {
	r.mutable()
	r.rows.reset()
	r.lendStored, r.lendNet = nil, nil
	r.idx, r.stats, r.viewed = nil, nil, false
}

// drain empties r as Reset does, but keeps its indexes, emptied, to be
// maintained from the next insert on, and their runs' arrays: r's own,
// as r is never cloned.
func (r *Relation) drain() {
	r.rows.reset()
	for _, ix := range r.idx {
		for i := range ix.slots {
			ix.slots[i].run = ix.slots[i].run[:0]
		}
		ix.n, ix.view, ix.at = 0, nil, nil
	}
	r.stats, r.viewed = nil, false
}

// replace puts cell c at place p: only its count changes if it holds the
// cell's key, else the row there leaves the key table and the indexes and
// c's row enters them at p.
func (r *Relation) replace(p int, c cell) {
	old := &r.rows.cells[p].cell
	if old.h == c.h && old.key(r.arity) == c.key(r.arity) {
		old.count = c.count
		return
	}
	t := r.At(p).Tuple
	for _, ix := range r.idx {
		ix.drop(r, t, p)
	}
	if r.rows.nslots() != 0 {
		r.rows.unslot(r.rows.slotOf(p))
	}
	*old = c
	r.rows.place(p)
	t = r.At(p).Tuple
	for _, ix := range r.idx {
		ix.add(r, t, p)
	}
}

// MergeDelta folds delta into r using the ⊎ operator of Section 3:
// counts add, zero-count tuples vanish. r is modified in place, in
// delta's order. Stored rows carry their keys and hashes: no tuple is
// encoded, no key hashed.
func (r *Relation) MergeDelta(delta *Relation) {
	for _, c := range delta.rows.cells {
		r.addHashed(delta.row(c.cell), c.h)
	}
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
	return r.Pick(func(_ int, c int64) int64 { return min(max(c, 0), 1) })
}

// Diff returns new − old as a signed count delta: what merged into old
// makes new. A tuple old holds keeps old's row, so the delta lends the
// stored tuple rather than a copy of it.
func Diff(old, new Reader) *Relation {
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

// Equal reports whether two relations contain exactly the same tuples with
// the same counts.
func Equal(a, b *Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, c := range a.rows.cells {
		if countAt(b, c.h, c.key(a.arity)) != c.count {
			return false
		}
	}
	return true
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
