package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ivm/internal/value"
)

// places is the order a Stored's rows read in, mirrored from the deltas
// it merges: the rows' keys and counts in place order, and base's place
// of each key. A new row takes the next place, a delete moves the last row
// into the hole and a count change keeps its place, as in the one table;
// but a row base holds at a place q below the length that comes back
// takes q back, and the row there moves to the end.
type places struct {
	keys  []string
	count map[string]int64
	base  map[string]int
	of    *Relation // the base the places are of
}

// seat takes s's state as it is, the first time, and base's places again
// after s has rebased: a rebase keeps the state's order.
func (m *places) seat(s *Stored) {
	if m.of == nil {
		m.count = make(map[string]int64)
		s.Each(func(row Row) {
			m.keys = append(m.keys, row.Key())
			m.count[row.Key()] = row.Count
		})
	}
	if m.of != s.base {
		m.of, m.base = s.base, make(map[string]int, len(m.keys))
		for p, k := range m.keys {
			m.base[k] = p
		}
	}
}

// merge merges d into s, and into the model row by row in d's order.
func (m *places) merge(s *Stored, d *Relation) {
	s.MergeDelta(d)
	d.Each(func(row Row) {
		k := row.Key()
		c, held := m.count[k]
		switch c += row.Count; {
		case row.Count == 0:
		case held && c == 0:
			p, last := slices.Index(m.keys, k), len(m.keys)-1
			m.keys[p] = m.keys[last]
			m.keys = m.keys[:last]
			delete(m.count, k)
		case held:
			m.count[k] = c
		default:
			m.count[k] = c
			if q, ok := m.base[k]; ok && q < len(m.keys) {
				m.keys = append(m.keys, m.keys[q])
				m.keys[q] = k
			} else {
				m.keys = append(m.keys, k)
			}
		}
	})
	m.seat(s)
}

// samePlaces checks that s reads as the place model m says, with the rows
// of flat, the one table fed the same deltas: Len, every row in Each's
// order, Count, Has and Stored of each probe (a base row the state deleted
// is found at count 0), LookupRun on cols for each probe's projection —
// the rows of the model's order that match, in that order — and
// DistinctEst of every column; that the net holds no row that is base's
// own at its base place; and that the base's key table and index runs are
// whole (checkRuns).
func samePlaces(t *testing.T, where string, s *Stored, m *places, flat *Relation, cols [][]int, probes ...value.Tuple) {
	t.Helper()
	if s.Len() != flat.Len() || len(m.keys) != flat.Len() || s.Empty() != flat.Empty() {
		t.Fatalf("%s: Len %d, the model's %d, the flat table's %d", where, s.Len(), len(m.keys), flat.Len())
	}
	show := func(row Row) string { return fmt.Sprintf("%v×%d", row.Tuple, row.Count) }
	model := make([]Row, len(m.keys))
	for p, k := range m.keys {
		row, ok := flat.Stored([]byte(k))
		if !ok || row.Count != m.count[k] {
			t.Fatalf("%s: the model holds %q×%d, the flat table %v", where, k, m.count[k], row)
		}
		model[p] = row
	}
	var got, want []string
	s.Each(func(row Row) { got = append(got, show(row)) })
	for _, row := range model {
		want = append(want, show(row))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Each reads\n  %v\nthe model\n  %v", where, got, want)
	}
	runs := make([]map[string][]string, len(cols)) // each cols' runs, by projection's key
	for i, c := range cols {
		runs[i] = make(map[string][]string)
		for _, row := range model {
			k := row.Tuple.Project(c).Key()
			runs[i][k] = append(runs[i][k], show(row))
		}
	}
	var buf []Row
	for _, tu := range probes {
		if s.Count(tu) != flat.Count(tu) || s.Has(tu) != flat.Has(tu) {
			t.Fatalf("%s: Count(%v) = %d, the flat table's %d", where, tu, s.Count(tu), flat.Count(tu))
		}
		kb := tu.AppendKey(nil)
		row, ok := s.Stored(kb)
		_, inBase := m.base[string(kb)]
		if ok != (flat.Count(tu) != 0 || inBase) || row.Count != flat.Count(tu) || ok && row.Key() != string(kb) {
			t.Fatalf("%s: Stored(%v) = %v %v, the flat table counts %d, the base holds it: %v", where, tu, row, ok, flat.Count(tu), inBase)
		}
		for ci, c := range cols {
			kv := tu.Project(c)
			run := LookupRun(s, c, kv, &buf)
			got, want = got[:0], runs[ci][kv.Key()]
			for i := range run.Len() {
				got = append(got, show(run.Row(i)))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: LookupRun(%v, %v) reads %v, the model %v", where, c, kv, got, want)
			}
		}
	}
	for col := range max(flat.Arity(), 0) {
		if s.DistinctEst(col) != flat.DistinctEst(col) {
			t.Fatalf("%s: DistinctEst(%d) = %d, the flat table's %d", where, col, s.DistinctEst(col), flat.DistinctEst(col))
		}
	}
	for i, p := range s.pos {
		if int(p) < s.base.Len() {
			if c, b := s.net.rows.cells[i], s.base.rows.cells[p]; c.vals == b.vals && c.count == b.count {
				t.Fatalf("%s: the net holds base's own row %v×%d at its place %d", where, s.net.At(i).Tuple, c.count, p)
			}
		}
	}
	checkRuns(t, where, s.base)
	checkRuns(t, where, s.net)
}

// tableStored feeds a published Stored and one table the same stream of
// deltas — inserts, deletes of stored rows, count bumps, base rows put
// back at their base counts, and bulk ones that take the net past its
// bound — and after each holds the Stored to the place model, and the
// version it published to the table; a rebase makes a base exactly the
// size of its rows.
func tableStored(t *testing.T, rng *rand.Rand) {
	cols := [][]int{{0}, {1}, {0, 1}}
	tuple := func() value.Tuple { return value.T(rng.Intn(40), fmt.Sprintf("v%d", rng.Intn(30))) }
	rebases, settled := 0, 0
	for trial := 0; trial < 6; trial++ {
		flat := New(2)
		for i := rng.Intn(1200); i > 0; i-- {
			flat.Add(tuple(), int64(rng.Intn(3)+1))
		}
		for _, c := range cols {
			flat.Lookup(c, value.T(0, "v0")[:len(c)])
		}
		s := Store(flat.Clone())
		if trial%2 == 0 { // the writer's indexes come along
			for _, c := range cols {
				LookupInto(s, c, value.T(0, "v0")[:len(c)], new([]Row))
			}
		}
		v := s.Publish(nil, nil)
		m := &places{}
		m.seat(s)
		for op := 0; op < 60; op++ {
			d, rows := New(2), flat.Rows()
			n := 1 + rng.Intn(12)
			if op%15 == 14 {
				n = minFlattenRows + rng.Intn(flat.Len()/2+1)
			}
			for i := 0; i < n; i++ {
				switch k := rng.Intn(5); {
				case k == 0 && len(rows) > 0:
					row := rows[rng.Intn(len(rows))]
					d.AddRow(row.WithCount(-row.Count - d.Count(row.Tuple)))
				case k == 1 && len(rows) > 0:
					d.AddRow(rows[rng.Intn(len(rows))].WithCount(int64(rng.Intn(5) - 2)))
				case k == 2 && s.base.Len() > 0:
					b := s.base.At(rng.Intn(s.base.Len()))
					d.AddRow(b.WithCount(b.Count - flat.Count(b.Tuple) - d.Count(b.Tuple)))
				default:
					d.Add(tuple(), int64(rng.Intn(3)+1))
				}
			}
			prev, net := s.base, s.net.Len()
			flat.MergeDelta(d)
			m.merge(s, d)
			v = s.Publish(v, d)
			if s.base == prev && s.net.Len() < net {
				settled++
			}
			where := fmt.Sprintf("trial %d op %d", trial, op)
			probes := []value.Tuple{tuple(), tuple()}
			d.Each(func(row Row) { probes = append(probes, row.Tuple) })
			samePlaces(t, where, s, m, flat, cols, probes...)
			if !Equal(Materialize(v.Reader()), flat) {
				t.Fatalf("%s: the published version differs from the flat table", where)
			}
			if s.base != prev {
				rebases++
				if s.net.Len() != 0 || cap(s.base.rows.cells) != s.base.Len() || v.Depth() != 0 {
					t.Fatalf("%s: a rebase left %d net rows, %d rows in %d cells, depth %d", where, s.net.Len(), s.base.Len(), cap(s.base.rows.cells), v.Depth())
				}
			}
		}
	}
	if rebases < 6 || settled < 6 {
		t.Fatalf("%d rebases and %d merges that shrank the net over the streams, want several of each", rebases, settled)
	}
}

// A rebase that shrinks its relation copies the base once, at the new
// size: it allocates one table of the state's rows and, for the index it
// carries, a key table and the runs it writes — no table at the old size,
// and no second copy to trim one. Measured 113 272 bytes from 4 000 rows to
// 3 001 against a bound of 134 188; 137 848 against 158 196 when a table
// entry was 40 bytes, its cell holding a pointer to the key behind the
// row's values.
func TestRebaseCopiesItsBaseOnce(t *testing.T) {
	base := New(2)
	for i := range 4000 {
		base.Add(value.T(i, i%50), 1)
	}
	base.Lookup([]int{1}, value.T(0))
	base.Freeze()
	s := Store(base)
	LookupInto(s, []int{1}, value.T(0), new([]Row))
	m := &places{}
	m.seat(s)
	del := New(2)
	for i := range s.bound() - 1 { // deletes at the front: each moves the last row into the net
		del.Add(value.T(i, i%50), -1)
	}
	m.merge(s, del)
	if s.base != base || s.net.Len() != s.bound()-1 {
		t.Fatalf("setup: the net holds %d rows, want %d and no rebase yet", s.net.Len(), s.bound()-1)
	}
	n := s.Len()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	s.rebase()
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	table := uint64(n) * uint64(unsafe.Sizeof(entry{}))
	keys := uint64(keySlots(50)) * uint64(unsafe.Sizeof(slot{}))
	runs := uint64(3 * 4 * n) // each run copied when first written, then grown: 3 int32s a position at most
	if limit := table + keys + runs; got > limit {
		t.Fatalf("a rebase from %d rows to %d allocated %d bytes, more than one table of %d rows (%d), its key table (%d) and its runs (%d)",
			base.Len(), n, got, n, table, keys, runs)
	}
	t.Logf("a rebase from %d rows to %d allocated %d bytes: a table of %d, a key table of %d, runs up to %d", base.Len(), n, got, table, keys, runs)
	if c := cap(s.base.rows.cells); c != n || s.base.Len() != n {
		t.Fatalf("the new base holds %d rows with room for %d, want %d exactly", s.base.Len(), c, n)
	}
	flat := base.Clone()
	flat.MergeDelta(del)
	flat.Lookup([]int{1}, value.T(0))
	m.seat(s)
	samePlaces(t, "after the shrinking rebase", s, m, flat, [][]int{{1}}, value.T(3999, 49), value.T(0, 0), value.T(2500, 0))
}

// Counts reads, row for row, the count Count reads: on a private relation
// and a shared one, for rows held in the base at their place, in the net,
// moved there by a swap-remove, and absent, and across a rebase.
func TestCountsReadWhatCountReads(t *testing.T) {
	row := func(i int) value.Tuple { return value.T(i, fmt.Sprintf("v%d", i%7)) }
	base := New(2)
	for i := range 40 {
		base.Add(row(i), int64(1+i%3))
	}
	probe := New(2) // rows 30..49: the last ten absent
	for i := 30; i < 50; i++ {
		probe.Add(row(i), 1)
	}
	check := func(where string, s *Stored, want map[int]int64) {
		t.Helper()
		got := s.Counts(probe, []int64{7}) // appends after what dst holds
		if len(got) != 1+probe.Len() || got[0] != 7 {
			t.Fatalf("%s: Counts returned %d counts after the 1 dst held (%v), want %d", where, len(got)-1, got, probe.Len())
		}
		for i, c := range got[1:] {
			r := probe.At(i)
			n := r.Tuple[0].Int()
			if c != s.Count(r.Tuple) {
				t.Fatalf("%s: Counts reads %d for %v, Count %d", where, c, r.Tuple, s.Count(r.Tuple))
			}
			if w, ok := want[int(n)]; ok && c != w {
				t.Fatalf("%s: Counts reads %d for %v, want %d", where, c, r.Tuple, w)
			}
		}
	}
	s := Store(base.Clone())
	check("private", s, map[int]int64{30: 1, 39: 1, 40: 0, 49: 0})
	s.Publish(nil, nil)
	check("shared, every row at its place", s, map[int]int64{30: 1, 39: 1, 40: 0})
	d := New(2)
	d.Add(row(31), 5)                    // bumped: in the net at its place
	d.Add(row(32), -base.Count(row(32))) // deleted: row 39 moves into its place
	d.Add(row(45), 2)                    // new: in the net past the base
	s.MergeDelta(d)
	if s.net.Len() != 3 || s.atp(32) == 0 {
		t.Fatalf("setup: the net holds %d rows, want the bumped, the moved and the new one", s.net.Len())
	}
	check("shared, with a net", s, map[int]int64{30: 1, 31: 7, 32: 0, 39: 1, 45: 2, 46: 0})
	prev := s.base
	bulk := New(2)
	for i := 100; i < 100+minFlattenRows; i++ {
		bulk.Add(row(i), 1)
	}
	s.MergeDelta(bulk)
	if s.base == prev || s.net.Len() != 0 {
		t.Fatalf("setup: %d rows merged past the net's bound left %d net rows and no rebase", bulk.Len(), s.net.Len())
	}
	check("after a rebase", s, map[int]int64{30: 1, 31: 7, 32: 0, 39: 1, 45: 2, 46: 0})
	check("a nil relation", nil, map[int]int64{30: 0, 45: 0})
}
