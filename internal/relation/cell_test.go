package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ivm/internal/value"
)

// A stored row is a cell: the pointer to its block — the tuple's values,
// then its key's bytes — its count, and its key's length and hash; the
// tuple's length is the relation's arity and is not stored, nor is where
// the key is. A relation is a dense array of them in insertion order
// beside an open-addressing array of positions.
// An index slot is a run of positions and a hash. These tests hold that
// layout and those tables to their contract.

func TestCellIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(cell{}) = %d, want 24 (the table is an array of them)", got)
	}
	if got := unsafe.Sizeof(slot{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(slot{}) = %d, want 32 (a key table is an array of them)", got)
	}
	if got := unsafe.Sizeof(slot{}.run[0]); got != 4 {
		t.Fatalf("a run entry is %d bytes, want the 4 of a position", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 32 || slotsPer != 2 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want 32: a cell and %d slots of 4 bytes", got, slotsPer)
	}
}

// modelRow is one entry of the plain model a relation is checked against:
// canonical key → the tuple as it was given, and its count.
type modelRow struct {
	tuple value.Tuple
	count int64
}

type model map[string]modelRow

func (m model) add(t value.Tuple, c int64) {
	k := t.Key()
	mr, ok := m[k]
	if !ok {
		mr.tuple = slices.Clone(t)
	}
	if mr.count += c; mr.count == 0 {
		delete(m, k)
	} else {
		m[k] = mr
	}
}

func (m model) clone() model {
	c := make(model, len(m))
	for k, mr := range m {
		c[k] = mr
	}
	return c
}

// modelTuple draws a tuple from a small domain, so that operations meet
// stored tuples often. Half of the tuples are cut from a longer slab
// (cap > len), as the tuples of a bulk load may be.
func modelTuple(rng *rand.Rand, arity int) value.Tuple {
	slab := make(value.Tuple, arity+rng.Intn(2)*3)
	for i := range slab {
		switch rng.Intn(7) {
		case 0:
			slab[i] = value.NewInt(int64(rng.Intn(3)))
		case 1:
			slab[i] = value.NewInt(math.MinInt64)
		case 2:
			slab[i] = value.NewFloat([]float64{0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1)}[rng.Intn(4)])
		case 3:
			slab[i] = value.NewString("")
		case 4:
			slab[i] = value.NewString(strings.Repeat("long|", 13+45*rng.Intn(2)))
		default:
			slab[i] = value.NewString(fmt.Sprintf("s|%d:", rng.Intn(3)))
		}
	}
	return slab[:arity]
}

// sameAsModel checks r against m through every read path: Len, Count,
// Stored, Each/Rows and — on a built index — Lookup. A row read back has
// the tuple that was stored (compared by key: NaN is not Equal to itself),
// with len == cap == arity whatever its capacity was when stored.
func sameAsModel(t *testing.T, where string, r *Relation, m model, arity int) {
	t.Helper()
	if r.Len() != len(m) {
		t.Fatalf("%s: Len = %d, model has %d rows", where, r.Len(), len(m))
	}
	var total int64
	for k, mr := range m {
		total += mr.count
		if got := r.Count(mr.tuple); got != mr.count {
			t.Fatalf("%s: Count(%v) = %d, model %d", where, mr.tuple, got, mr.count)
		}
		row, ok := r.Stored([]byte(k))
		if !ok || row.Count != mr.count || row.Tuple.Key() != k || row.Key() != k {
			t.Fatalf("%s: Stored(%q) = %v %v, model %v×%d", where, k, row, ok, mr.tuple, mr.count)
		}
	}
	if r.TotalCount() != total {
		t.Fatalf("%s: TotalCount = %d, model %d", where, r.TotalCount(), total)
	}
	seen := 0
	check := func(row Row) {
		seen++
		mr, ok := m[row.Key()]
		if !ok || row.Count != mr.count || row.Tuple.Key() != row.Key() {
			t.Fatalf("%s: read back %v×%d under key %q, model %v×%d (present %v)", where, row.Tuple, row.Count, row.Key(), mr.tuple, mr.count, ok)
		}
		if len(row.Tuple) != arity || cap(row.Tuple) != arity {
			t.Fatalf("%s: read back %v with len %d cap %d, want both %d", where, row.Tuple, len(row.Tuple), cap(row.Tuple), arity)
		}
	}
	r.Each(check)
	for _, row := range r.Rows() {
		check(row)
	}
	if seen != 2*len(m) {
		t.Fatalf("%s: Each and Rows visited %d rows, want %d", where, seen, 2*len(m))
	}
	checkRuns(t, where, r)
	if arity == 0 {
		return
	}
	cols := []int{arity - 1}
	for _, mr := range m { // one probe per check keeps the test linear
		probe := mr.tuple.Project(cols)
		want := 0
		for _, o := range m {
			if o.tuple.Project(cols).Key() == probe.Key() {
				want++
			}
		}
		got := r.Lookup(cols, probe)
		for _, row := range got {
			if m[row.Key()].count != row.Count || row.Tuple.Project(cols).Key() != probe.Key() {
				t.Fatalf("%s: Lookup(%v, %v) holds %v×%d, model %d", where, cols, probe, row.Tuple, row.Count, m[row.Key()].count)
			}
		}
		if len(got) != want {
			t.Fatalf("%s: Lookup(%v, %v) = %d rows, model %d", where, cols, probe, len(got), want)
		}
		break
	}
}

// checkRuns holds every index r has built to a scan of r: each run lists,
// ascending, exactly the positions of the rows that project to its key,
// under that key's hash, and the key table finds it; and the row table's
// slots point at every cell once, each from its probe path. Every cell is
// one block: its key, the encoding of its values, is the kl bytes at
// vals + arity × 32.
func checkRuns(t *testing.T, where string, r *Relation) {
	t.Helper()
	cells := r.rows.cells
	for p, c := range cells {
		kp := unsafe.Add(unsafe.Pointer(c.vals), int(r.arity)*32)
		if key := unsafe.String((*byte)(kp), c.kl); key != value.Tuple(unsafe.Slice(c.vals, r.arity)).Key() || c.h != hashString(key) {
			t.Fatalf("%s: the cell at position %d holds %q behind its values %v", where, p, key, unsafe.Slice(c.vals, r.arity))
		}
	}
	if n := r.rows.nslots(); n != 0 {
		seen := make([]bool, len(cells))
		for i := 0; i < n; i++ {
			p := *r.rows.slot(i)
			if p == 0 {
				continue
			}
			if int(p) > len(cells) || seen[p-1] {
				t.Fatalf("%s: row slot %d holds position %d of %d, or twice", where, i, p-1, len(cells))
			}
			seen[p-1] = true
			if find(r, cells[p-1].h, cells[p-1].key(r.arity)) != int(p-1) {
				t.Fatalf("%s: the row at position %d is not found from its home", where, p-1)
			}
		}
		if slices.Contains(seen, false) {
			t.Fatalf("%s: the row slots miss a position", where)
		}
	} else if len(cells) > smallRows {
		t.Fatalf("%s: %d rows and no slots", where, len(cells))
	}
	for i, e := range cells[len(cells):cap(cells)] {
		if e.cell != (cell{}) {
			t.Fatalf("%s: the cell after the last row, at %d, holds %+v", where, len(cells)+i, e.cell)
		}
	}
	for _, ix := range r.idx {
		want := map[string][]int32{}
		for p, c := range cells {
			k := r.row(c.cell).Tuple.Project(ix.cols).Key()
			want[k] = append(want[k], int32(p))
		}
		n := 0
		for _, s := range ix.slots {
			if len(s.run) == 0 {
				continue
			}
			n++
			key := r.At(int(s.run[0])).Tuple.Project(ix.cols)
			if !slices.Equal(s.run, want[key.Key()]) || s.h != hashString(key.Key()) {
				t.Fatalf("%s: index %v holds run %v for %v, a scan finds %v", where, ix.cols, s.run, key, want[key.Key()])
			}
			if i := ix.find(r, s.h, key); i < 0 || !slices.Equal(ix.slots[i].run, s.run) {
				t.Fatalf("%s: index %v does not find its run for %v", where, ix.cols, key)
			}
		}
		if n != ix.n || n != len(want) {
			t.Fatalf("%s: index %v has %d runs, counts %d, a scan finds %d keys", where, ix.cols, n, ix.n, len(want))
		}
	}
}

// The model test of the cell layout: seeded random Add / AddRow / Set /
// Delete / MergeDelta / Clone / cloneIndexed / Negate / ToSet / setDiff /
// Reset streams over arities 0–6, relations created with their arity and
// with -1, and int, float and string values, some strings long enough
// for keys of 65–300 bytes, against a plain map: the rows past arity 4 or
// 64 key bytes are of the block types built per shape. CI runs
// it in the -race leg too, and -race enables checkptr: there a cell read
// back with an arity larger than its tuple's backing array — the one
// mistake the unsafe.Slice in row can make — is a fatal "unsafe.Slice
// result straddles multiple allocations"; a smaller one fails the len and
// key checks of sameAsModel in any leg.
func TestCellsAgainstPlainModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	for trial := 0; trial < 140; trial++ {
		arity := trial % 7
		made := arity
		if trial%2 == 1 {
			made = -1
		}
		r, m := New(made), model{}
		where := func(op string, i int) string { return fmt.Sprintf("trial %d arity %d op %d %s", trial, arity, i, op) }
		for i := 0; i < 150; i++ {
			tu, c := modelTuple(rng, arity), int64(rng.Intn(7)-3)
			op := ""
			switch rng.Intn(16) {
			case 0, 1, 2, 3:
				op = "Add"
				r.Add(tu, c)
				m.add(tu, c)
			case 4, 5:
				op = "AddRow"
				r.AddRow(keyed(tu, c))
				m.add(tu, c)
			case 6:
				op = "Set"
				r.Set(tu, c)
				m.add(tu, c-m[tu.Key()].count)
			case 7:
				op = "Delete"
				r.Delete(tu)
				m.add(tu, -m[tu.Key()].count)
			case 8:
				op = "MergeDelta"
				d := New(made)
				for j := rng.Intn(6); j > 0; j-- {
					dt, dc := modelTuple(rng, arity), int64(rng.Intn(5)-2)
					d.Add(dt, dc)
				}
				d.Each(func(row Row) { m.add(row.Tuple, row.Count) })
				r.MergeDelta(d)
			case 9:
				op = "Clone"
				old, oldM := r, m.clone()
				r = r.Clone()
				r.Add(tu, 1)
				m.add(tu, 1)
				sameAsModel(t, where("Clone's original", i), old, oldM, arity)
			case 10:
				op = "cloneIndexed"
				if arity > 0 {
					r.Lookup([]int{arity - 1}, tu[arity-1:])
				}
				old, oldM := r, m.clone()
				r = r.cloneIndexed(r.Len())
				r.Add(tu, 2)
				m.add(tu, 2)
				sameAsModel(t, where("cloneIndexed's original", i), old, oldM, arity)
			case 11:
				op = "Negate"
				old, oldM := r, m.clone()
				r = r.Negate()
				for k, mr := range m {
					mr.count = -mr.count
					m[k] = mr
				}
				r.Add(tu, 3)
				m.add(tu, 3)
				sameAsModel(t, where("Negate's original", i), old, oldM, arity)
			case 12:
				op = "ToSet"
				r = r.ToSet()
				for k, mr := range m {
					if mr.count <= 0 {
						delete(m, k)
					} else {
						m[k] = modelRow{mr.tuple, 1}
					}
				}
			case 13:
				op = "SetDiff"
				b, next := New(made), model{}
				for j := rng.Intn(6); j > 0; j-- {
					b.Add(modelTuple(rng, arity), int64(rng.Intn(4)-1))
				}
				for k, mr := range m {
					if mr.count > 0 && b.Count(mr.tuple) <= 0 {
						next[k] = modelRow{mr.tuple, 1}
					}
				}
				b.Each(func(row Row) {
					if row.Count > 0 && m[row.Key()].count <= 0 {
						next[row.Key()] = modelRow{row.Tuple, -1}
					}
				})
				r, m = setDiff(r, b), next
			case 14:
				op = "Reset"
				r.Reset()
				m = model{}
			default:
				op = "append to a read-back tuple"
				// len == cap, so the append copies: neither the stored
				// tuple nor the slab it was cut from is written.
				for _, row := range r.Rows() {
					_ = append(row.Tuple, value.NewString("clobber"))
				}
			}
			sameAsModel(t, where(op, i), r, m, arity)
		}
	}
	t.Run("growths", func(t *testing.T) { tableGrowths(t, rng) })
	t.Run("wrapped delete run", tableWrappedRun)
	t.Run("sized", tableSized)
	t.Run("materialize", tableMaterialize)
	t.Run("rows in home order", tableHomeOrder)
	t.Run("stored", func(t *testing.T) { tableStored(t, rng) })
}

// tableHomeOrder feeds a growing relation the rows of another in the
// order they are read out. Were that the source's home order, as it was
// when rows iterated over the hash table, the rows would fill the
// target's first slots as one run at every size it passes through, since
// every table takes its homes from the one hash; in insertion order no run
// is long. Checked when the target is as full as it gets, just before a
// growth.
func tableHomeOrder(t *testing.T) {
	src := New(2)
	for i := 0; i < 40000; i++ {
		src.Add(intTuple(i), 1)
	}
	dst := New(2)
	for _, row := range src.Rows() {
		if dst.AddRow(row); dst.Len() == 32768 {
			break
		}
	}
	n := dst.rows.nslots()
	if cap(dst.rows.cells) != 32768 || n != slotsPer*32768 {
		t.Fatalf("32 768 rows sit in %d cells and %d slots, want a full table of 32 768", cap(dst.rows.cells), n)
	}
	longest, run := 0, 0
	for j := 0; j < n; j++ {
		if run++; *dst.rows.slot(j) == 0 {
			run = 0
		}
		longest = max(longest, run)
	}
	if longest > n/8 {
		t.Fatalf("the longest run of a table filled from another's rows is %d of %d slots", longest, n)
	}
}

// intTuple is the i-th tuple of a domain as large as a test needs.
func intTuple(i int) value.Tuple { return value.T(int64(i%97), int64(i)) }

// tableGrowths takes a relation made empty through every doubling up to a
// few thousand rows with deletes mixed in, empties it, refills it with
// other tuples, and then lets a Clone and a Negate of it and the relation
// itself each go their own way: no copy sees a later write of another.
func tableGrowths(t *testing.T, rng *rand.Rand) {
	r, m := New(-1), model{}
	grown, cells := 0, 0
	for i := 0; i < 6000; i++ {
		r.Add(intTuple(i), int64(1+i%3))
		m.add(intTuple(i), int64(1+i%3))
		if j := rng.Intn(i + 1); rng.Intn(3) == 0 {
			r.Delete(intTuple(j))
			m.add(intTuple(j), -m[intTuple(j).Key()].count)
		}
		if cap(r.rows.cells) != cells {
			grown, cells = grown+1, cap(r.rows.cells)
			sameAsModel(t, fmt.Sprintf("after growth %d to %d cells", grown, cells), r, m, 2)
		}
	}
	if grown < 8 {
		t.Fatalf("the table grew %d times, want a stream that crosses several growths", grown)
	}
	sameAsModel(t, "grown", r, m, 2)

	for k, mr := range m {
		r.Delete(mr.tuple)
		delete(m, k)
	}
	for i, e := range r.rows.cells[:cap(r.rows.cells)] {
		if e != (entry{}) {
			t.Fatalf("entry %d of an emptied table is %+v, want the zero cell and empty slots", i, e)
		}
	}
	sameAsModel(t, "emptied", r, m, 2)
	for i := 10000; i < 13000; i++ {
		r.Add(intTuple(i), -2)
		m.add(intTuple(i), -2)
	}
	if cap(r.rows.cells) != cells {
		t.Fatalf("refilling an emptied table of %d cells with fewer rows left it with %d", cells, cap(r.rows.cells))
	}
	sameAsModel(t, "refilled", r, m, 2)

	cl, clM := r.Clone(), m.clone()
	ng, ngM := r.Negate(), model{}
	for k, mr := range m {
		ngM[k] = modelRow{mr.tuple, -mr.count}
	}
	for i := 10000; i < 13000; i++ {
		switch tu := intTuple(i); i % 3 {
		case 0:
			r.Delete(tu)
			m.add(tu, 2)
		case 1:
			cl.Add(tu, 2) // cancels
			clM.add(tu, 2)
			cl.Add(intTuple(i+5000), 1)
			clM.add(intTuple(i+5000), 1)
		default:
			ng.Add(tu, 5)
			ngM.add(tu, 5)
		}
	}
	sameAsModel(t, "the original after its copies diverged", r, m, 2)
	sameAsModel(t, "the diverged Clone", cl, clM, 2)
	sameAsModel(t, "the diverged Negate", ng, ngM, 2)
}

// tableWrappedRun fills a sized table with tuples whose home is its last
// slot, so that their probe run wraps the end of the slot array, and
// deletes them in every rotation of their order: each delete shifts slots
// back across the wrap and moves the last cell into the hole, and every
// tuple left must still be found.
func tableWrappedRun(t *testing.T) {
	const n = 2 * smallRows
	last := slotsFor(n) - 1
	var run []value.Tuple
	for i := 0; len(run) < n-1; i++ {
		if tu := intTuple(i); homeOf(hashString(tu.Key()), last+1) == last {
			run = append(run, tu)
		}
	}
	for rot := range run {
		r, m := NewSized(2, n), model{}
		for _, tu := range run {
			r.Add(tu, 1)
			m.add(tu, 1)
		}
		if p := *r.rows.slot(0); p == 0 || homeOf(r.rows.cells[p-1].h, last+1) != last {
			t.Fatalf("slot 0 holds position %d: the run does not wrap the end of the array", p-1)
		}
		for i := range run {
			tu := run[(rot+i)%len(run)]
			r.Delete(tu)
			m.add(tu, -1)
			sameAsModel(t, fmt.Sprintf("rotation %d after delete %d", rot, i), r, m, 2)
		}
	}
}

// tableSized: NewSized(n) and n inserts allocate the relation and one
// array, never a second; one more row than it was made for may grow it.
func tableSized(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, smallRows, smallRows + 1, 100, 1000} {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = keyed(intTuple(i), 1)
		}
		var r *Relation
		allocs := testing.AllocsPerRun(10, func() {
			r = NewSized(2, n)
			for _, row := range rows {
				r.AddRow(row)
			}
		})
		if allocs > 2 || cap(r.rows.cells) != n || r.Len() != n {
			t.Errorf("NewSized(%d) and %d inserts: %v allocations, %d cells for %d rows; want 2 allocations and %d cells",
				n, n, allocs, cap(r.rows.cells), r.Len(), n)
		}
	}
}

// tableMaterialize flattens a chain whose links insert, cancel and
// re-insert one tuple the base lacks, delete and re-insert one it holds,
// remove a third, and between them insert as many new rows as the base
// has before deleting them again: the flat form is the model's, and its
// table is the one made for that row count — the inserts that came before
// their deletes did not grow it.
func tableMaterialize(t *testing.T) {
	base, m := New(2), model{}
	for i := 0; i < 1000; i++ {
		base.Add(intTuple(i), 2)
		m.add(intTuple(i), 2)
	}
	v := NewVersioned(base)
	link := func(rows ...Row) {
		d := New(2)
		for _, row := range rows {
			d.Add(row.Tuple, row.Count)
			m.add(row.Tuple, row.Count)
		}
		v = v.Push(d)
	}
	fresh, held, gone := intTuple(5000), intTuple(1), intTuple(2)
	var flood, ebb []Row
	for i := 2000; i < 3000; i++ {
		flood = append(flood, Row{Tuple: intTuple(i), Count: 1})
		ebb = append(ebb, Row{Tuple: intTuple(i), Count: -1})
	}
	link(append(flood, Row{Tuple: fresh, Count: 1}, Row{Tuple: held, Count: -2})...)
	link(Row{Tuple: fresh, Count: -1}, Row{Tuple: gone, Count: -1})
	link(append(ebb, Row{Tuple: fresh, Count: 3}, Row{Tuple: held, Count: 1}, Row{Tuple: gone, Count: -1})...)
	f := v.Flat()
	sameAsModel(t, "flattened chain", f, m, 2)
	if f.Len() != 1000 || cap(f.rows.cells) != 1000 {
		t.Fatalf("flat form has %d rows in %d cells, want 1000 rows in the 1000 cells made for them", f.Len(), cap(f.rows.cells))
	}
}

// A tuple cut from a slab keeps its neighbours: the stored cell forgets
// the slab's capacity, so no reader can append into it.
func TestReadBackTupleDoesNotAliasItsSlab(t *testing.T) {
	slab := value.T("a", "b", "next")
	r := New(2)
	r.Add(slab[:2], 1)
	r.Each(func(row Row) { _ = append(row.Tuple, value.NewString("clobber")) })
	if got := slab[2].Str(); got != "next" {
		t.Fatalf("append to a read-back tuple wrote %q into the slab it was stored from", got)
	}
}
