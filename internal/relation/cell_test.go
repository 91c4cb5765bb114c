package relation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"ivm/internal/value"
)

// A stored row is a cell: key, pointer to the tuple's backing array and
// count — the tuple's length is the relation's arity and is not stored.
// These tests hold that layout to its contract.

func TestCellIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(cell{}) = %d, want 32 (a map[string]cell slot of 48 bytes)", got)
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
				r = r.cloneIndexed()
				r.Add(tu, 2)
				m.add(tu, 2)
				sameAsModel(t, where("cloneIndexed's original", i), old, oldM, arity)
			case 11:
				op = "Negate"
				r = r.Negate()
				for k, mr := range m {
					mr.count = -mr.count
					m[k] = mr
				}
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
