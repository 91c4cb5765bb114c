package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"ivm/internal/value"
)

// A stored row is a cell: the key (pointer, length and hash), pointer to
// the tuple's backing array and count — the tuple's length is the
// relation's arity and is not stored — and a relation is one flat
// open-addressing array of them. These tests hold that layout and that
// table to their contract.

func TestCellIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(cell{}) = %d, want 32 (the table is an array of them)", got)
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
		mr.tuple = t.Clone()
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
		switch rng.Intn(6) {
		case 0:
			slab[i] = value.NewInt(int64(rng.Intn(3)))
		case 1:
			slab[i] = value.NewInt(math.MinInt64)
		case 2:
			slab[i] = value.NewFloat([]float64{0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1)}[rng.Intn(4)])
		case 3:
			slab[i] = value.NewString("")
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

// The model test of the cell layout: seeded random Add / AddRow / Set /
// Delete / MergeDelta / Clone / cloneIndexed / Negate / ToSet / SetDiff /
// Reset streams over arities 0–4, relations created with their arity and
// with -1, and int, float and string values, against a plain map. CI runs
// it in the -race leg too, and -race enables checkptr: there a cell read
// back with an arity larger than its tuple's backing array — the one
// mistake the unsafe.Slice in row can make — is a fatal "unsafe.Slice
// result straddles multiple allocations"; a smaller one fails the len and
// key checks of sameAsModel in any leg.
func TestCellsAgainstPlainModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	for trial := 0; trial < 120; trial++ {
		arity := trial % 5
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
				r, m = SetDiff(r, b), next
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
}

// tableHomeOrder feeds a growing relation the rows of another in the order
// they are read out, which is the source's home order. Were the homes of
// the two tables the same, the rows would fill the target's first cells as
// one run at every size it passes through, and building it would be
// quadratic; with a multiplier per table no run is long. Checked when the
// target is as full as it gets, just before a growth.
func tableHomeOrder(t *testing.T) {
	src := New(2)
	for i := 0; i < 40000; i++ {
		src.Add(intTuple(i), 1)
	}
	dst := New(2)
	for _, row := range src.Rows() {
		if dst.AddRow(row); dst.Len() == 26000 {
			break
		}
	}
	cells := dst.rows.cells
	if len(cells) != 32768 {
		t.Fatalf("26 000 rows sit in %d cells, want the 32 768 that are four fifths full at 26 214", len(cells))
	}
	longest, run := 0, 0
	for _, c := range cells {
		if run++; c.count == 0 {
			run = 0
		}
		longest = max(longest, run)
	}
	if longest > len(cells)/8 {
		t.Fatalf("the longest run of a table filled in another's home order is %d of %d cells", longest, len(cells))
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
		if len(r.rows.cells) != cells {
			grown, cells = grown+1, len(r.rows.cells)
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
	for i, c := range r.rows.cells {
		if c != (cell{}) {
			t.Fatalf("cell %d of an emptied table is %+v, want the zero cell", i, c)
		}
	}
	sameAsModel(t, "emptied", r, m, 2)
	for i := 10000; i < 13000; i++ {
		r.Add(intTuple(i), -2)
		m.add(intTuple(i), -2)
	}
	if len(r.rows.cells) != cells {
		t.Fatalf("refilling an emptied table of %d cells with fewer rows left it with %d", cells, len(r.rows.cells))
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
// cell, so that their probe run wraps the end of the array, and deletes
// them in every rotation of their order: each delete shifts cells back
// across the wrap, and every tuple left must still be found.
func tableWrappedRun(t *testing.T) {
	const n = 6
	probe := NewSized(2, n)
	last := len(probe.rows.cells) - 1
	var run []value.Tuple
	for i := 0; len(run) < n-1; i++ {
		if tu := intTuple(i); probe.rows.home(hashString(tu.Key())) == last {
			run = append(run, tu)
		}
	}
	for rot := range run {
		r, m := NewSized(2, n), model{}
		r.rows.mul = probe.rows.mul // the homes the run was picked for
		for _, tu := range run {
			r.Add(tu, 1)
			m.add(tu, 1)
		}
		if r.rows.cells[0].count == 0 || r.rows.home(r.rows.cells[0].h) != last {
			t.Fatalf("cell 0 holds %+v: the run does not wrap the end of the array", r.rows.cells[0])
		}
		for i := range run {
			tu := run[(rot+i)%len(run)]
			r.Delete(tu)
			m.add(tu, -1)
			sameAsModel(t, fmt.Sprintf("rotation %d after delete %d", rot, i), r, m, 2)
		}
	}
}

// tableSized: NewSized(n) and n inserts allocate the relation and one cell
// array, never a second; one more row than it was made for may grow it.
func tableSized(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100, 1000} {
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
		if allocs > 2 || len(r.rows.cells) != sizedCells(n) || r.Len() != n {
			t.Errorf("NewSized(%d) and %d inserts: %v allocations, %d cells for %d rows; want 2 allocations and %d cells",
				n, n, allocs, len(r.rows.cells), r.Len(), sizedCells(n))
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
		d.Freeze()
		// Not Push: its ratio rule would flatten at the first link.
		v = &Versioned{rd: Overlay(v.rd, d), base: v.base, deltas: append(v.deltas[:len(v.deltas):len(v.deltas)], d), pend: v.pend + d.Len()}
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
	if f.Len() != 1000 || len(f.rows.cells) != sizedCells(1000) {
		t.Fatalf("flat form has %d rows in %d cells, want 1000 rows in the %d cells made for them", f.Len(), len(f.rows.cells), sizedCells(1000))
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
