package relation

import (
	"hash/maphash"
	"sync/atomic"
)

// table is the row container of a Relation: one flat open-addressing array
// of cells, probed linearly. A cell is occupied iff its count is non-zero
// — the Relation invariant, so there are no control bytes and no
// tombstones: a delete shifts the rest of its run back. The home of a key
// is hash·len(cells) >> 32, which works for any length, so a table is
// sized to its row count, not to a power of two, and copied by one make
// and one memmove. Cells carry their hash: placing, growing and deleting
// never read key bytes, and a probe reads them only on a hash match.
//
// The hash is the same in every table of the process, so a row goes from
// one relation into another without being hashed again; mul, odd and the
// table's own, scrambles it before the home is taken. Rows read out of one
// table arrive in its home order, and in a growing table with the same
// homes they would pile onto its first cells, run after run: quadratic. A
// copy keeps its source's mul: that lets it be a memmove, or sequential.
type table struct {
	cells []cell
	n     int // occupied cells
	mul   uint32
}

var lastMul atomic.Uint32

// newTable returns an empty table of the given length with a mul of its own.
func newTable(cells int) table {
	return table{cells: make([]cell, cells), mul: nextMul()}
}

// nextMul hands out the odd multipliers of tables and index key tables.
func nextMul() uint32 { return lastMul.Add(0x9e3779b2) | 1 }

// Load factors, measured (EXPERIMENTS.md E24): a table made for n rows has
// ⌈n·4/3⌉ cells, and one that grows in place doubles when an insert would
// take it past 4/5 full. Both leave an empty cell for a probe to stop at.
const (
	sizedNum, sizedDen = 4, 3
	growNum, growDen   = 4, 5
	minCells           = 8 // the first growth of a table made empty
)

// seed keys the cell hash, per process: relations hold tuples sent by
// network clients, who must not be able to aim them at one probe run.
var seed = maphash.MakeSeed()

func hashBytes(kb []byte) uint32 { return uint32(maphash.Bytes(seed, kb)) }
func hashString(k string) uint32 { return uint32(maphash.String(seed, k)) }

// sizedCells is the length of a table made for exactly n rows.
func sizedCells(n int) int { return (n*sizedNum + sizedDen - 1) / sizedDen }

func (t *table) home(h uint32) int { return homeOf(h, t.mul, len(t.cells)) }

// homeOf is the home of hash h in an array of n entries scrambled by mul.
func homeOf(h, mul uint32, n int) int { return int(uint64(h*mul) * uint64(n) >> 32) }

// find returns the index of the cell that holds key k, whose hash is h,
// or -1. It allocates nothing for either kind of key.
func find[K string | []byte](t *table, h uint32, k K) int {
	if len(t.cells) == 0 {
		return -1
	}
	for i := t.home(h); ; {
		c := &t.cells[i]
		if c.count == 0 {
			return -1
		}
		if c.h == h && c.key() == string(k) {
			return i
		}
		if i++; i == len(t.cells) {
			i = 0
		}
	}
}

// insert stores c, whose key the table does not hold, growing first if c
// would take the table past its load limit.
func (t *table) insert(c cell) {
	if (t.n+1)*growDen > len(t.cells)*growNum {
		*t = t.clone(max(minCells, 2*len(t.cells)))
	}
	t.place(c)
}

// place stores c in the first empty cell at or after its home.
func (t *table) place(c cell) {
	i := t.home(c.h)
	for t.cells[i].count != 0 {
		if i++; i == len(t.cells) {
			i = 0
		}
	}
	t.cells[i] = c
	t.n++
}

// del empties cell i and moves back every later cell of its run that the
// gap would cut off from its home, so that probes never need a tombstone.
func (t *table) del(i int) {
	for j := i; ; {
		if j++; j == len(t.cells) {
			j = 0
		}
		c := &t.cells[j]
		if c.count == 0 {
			break
		}
		// c stays if its home lies in (i, j], cyclically: then the gap at
		// i is not on its probe path.
		if k := t.home(c.h); (i < k && k <= j) || (j < i && (i < k || k <= j)) {
			continue
		}
		t.cells[i], i = *c, j
	}
	t.cells[i] = cell{}
	t.n--
}

// clone returns a copy of t with the given number of cells: by memmove
// when that is t's own length, cell by cell — in home order, so nearly
// sequentially — when it is not.
func (t *table) clone(cells int) table {
	if cells == len(t.cells) {
		return table{cells: append([]cell(nil), t.cells...), n: t.n, mul: t.mul}
	}
	out := table{cells: make([]cell, cells), mul: t.mul}
	for _, c := range t.cells {
		if c.count != 0 {
			out.place(c)
		}
	}
	return out
}
