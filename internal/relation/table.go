package relation

import "hash/maphash"

// table is the row container of a Relation: its cells in one dense array,
// in the order the rows went in, and an open-addressing array of positions
// that finds a key, probed linearly (CPython's compact dict). A delete is a
// swap-remove: the last cell moves into the hole. So the cells' order is a
// function of the operations applied, never of the hash seed, and a scan
// meets no empty cell. A slot holds a position + 1, 0 for empty; a delete
// shifts the rest of its slot run back, so there are no tombstones. The
// home of a key is hash·len(slots) >> 32. Cells carry their hash: placing,
// growing and deleting never read key bytes, nor a probe but on a match.
//
// The slots live in the cells' array, slotsPer beside each cell of its
// capacity, so a table is one allocation and a copy of the same capacity
// one memmove; with twice as many slots as rows they stay at most half
// full. A table of at most smallRows cells leaves them unused: a probe
// compares the hashes of its cells.
type table struct {
	cells []entry // len is the number of rows; the slots span cap
}

// entry is a cell and slotsPer slots: slot j is in entry j / slotsPer.
type entry struct {
	cell
	slots [slotsPer]int32
}

const (
	smallRows = 8 // the largest table that leaves its slots unused, and its first growth
	slotsPer  = 2 // slots per row of capacity
)

// slotsFor is the number of slots a table of the given capacity uses.
func slotsFor(rows int) int {
	if rows <= smallRows {
		return 0
	}
	return rows * slotsPer
}

func (t *table) nslots() int { return slotsFor(cap(t.cells)) }

// slot returns slot j.
func (t *table) slot(j int) *int32 {
	return &t.cells[:cap(t.cells)][uint(j)/slotsPer].slots[uint(j)%slotsPer]
}

// seed keys the cell hash, per process: relations hold tuples sent by
// network clients, who must not be able to aim them at one probe run.
var seed = maphash.MakeSeed()

func hashBytes(kb []byte) uint32 { return uint32(maphash.Bytes(seed, kb)) }
func hashString(k string) uint32 { return uint32(maphash.String(seed, k)) }

// homeOf is the home of hash h in an array of n entries.
func homeOf(h uint32, n int) int { return int(uint64(h) * uint64(n) >> 32) }

// find returns the position of the cell of r that holds key k, whose hash
// is h, or -1. It allocates nothing for either kind of key.
func find[K string | []byte](r *Relation, h uint32, k K) int {
	t := &r.rows
	n := t.nslots()
	if n == 0 {
		for i := range t.cells {
			if c := &t.cells[i]; c.h == h && c.key(r.arity) == string(k) {
				return i
			}
		}
		return -1
	}
	for j := homeOf(h, n); ; {
		p := *t.slot(j)
		if p == 0 {
			return -1
		}
		if c := &t.cells[p-1]; c.h == h && c.key(r.arity) == string(k) {
			return int(p - 1)
		}
		if j++; j == n {
			j = 0
		}
	}
}

// insert appends c, whose key the table does not hold, growing first if
// the table is full, and returns its position.
func (t *table) insert(c cell) int {
	if len(t.cells) == cap(t.cells) {
		*t = t.clone(max(smallRows, 2*cap(t.cells)))
	}
	p := len(t.cells)
	t.cells = t.cells[:p+1] // the entry's slots stay: they are not this cell's
	t.cells[p].cell = c
	t.place(p)
	return p
}

// place stores position p in the first empty slot at or after its home,
// if the table uses its slots.
func (t *table) place(p int) {
	n := t.nslots()
	if n == 0 {
		return
	}
	j := homeOf(t.cells[p].h, n)
	for *t.slot(j) != 0 {
		if j++; j == n {
			j = 0
		}
	}
	*t.slot(j) = int32(p + 1)
}

// slotOf returns the slot that holds position p.
func (t *table) slotOf(p int) int {
	n := t.nslots()
	j := homeOf(t.cells[p].h, n)
	for ; *t.slot(j) != int32(p+1); j = (j + 1) % n {
	}
	return j
}

// del removes the cell at position p: the last cell moves into its place,
// and the slot that pointed at the last cell now points at p.
func (t *table) del(p int) {
	last := len(t.cells) - 1
	if t.nslots() != 0 {
		t.unslot(t.slotOf(p))
		if p != last {
			*t.slot(t.slotOf(last)) = int32(p + 1)
		}
	}
	t.cells[p].cell = t.cells[last].cell
	t.cells[last].cell = cell{}
	t.cells = t.cells[:last]
}

// unslot empties slot i and moves back every later slot of its run that
// the gap would cut off from its home, so that probes never need a
// tombstone.
func (t *table) unslot(i int) {
	n := t.nslots()
	for j := i; ; {
		if j++; j == n {
			j = 0
		}
		p := *t.slot(j)
		if p == 0 {
			break
		}
		if inGap(i, j, homeOf(t.cells[p-1].h, n)) {
			continue
		}
		*t.slot(i), i = p, j
	}
	*t.slot(i) = 0
}

// inGap reports whether home k lies in (i, j], cyclically: then a gap at
// i is not on the probe path of the entry at j, which stays.
func inGap(i, j, k int) bool { return (i < k && k <= j) || (j < i && (i < k || k <= j)) }

// clone returns a copy of t's first cells, as many as the given number of
// rows has room for, with room for those rows. The cells keep their
// positions; a copy of t's capacity is one memmove, slots and all, and one
// of another capacity places its slots again.
func (t *table) clone(rows int) table {
	out := table{cells: make([]entry, min(len(t.cells), rows), rows)}
	if rows == cap(t.cells) {
		copy(out.cells[:rows], t.cells[:rows])
		return out
	}
	for p := range out.cells {
		out.cells[p].cell = t.cells[p].cell
		out.place(p)
	}
	return out
}

// reset empties t, keeping its array.
func (t *table) reset() {
	t.cells = t.cells[:0]
	clear(t.cells[:cap(t.cells)])
}
