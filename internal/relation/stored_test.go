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

// sameAsFlat checks that s reads exactly as flat, the one table fed the
// same operations: Len, every row in Each's order, Count, Has and Stored
// of each probe, LookupRun on cols for each probe's projection — the same
// rows in the same order — and DistinctEst of every column; and that the
// base's key table and index runs are whole (checkRuns).
func sameAsFlat(t *testing.T, where string, s *Stored, flat *Relation, cols [][]int, probes ...value.Tuple) {
	t.Helper()
	if s.Len() != flat.Len() || s.Empty() != flat.Empty() {
		t.Fatalf("%s: Len %d, the flat table's %d", where, s.Len(), flat.Len())
	}
	var got, want []string
	s.Each(func(row Row) { got = append(got, fmt.Sprintf("%v×%d", row.Tuple, row.Count)) })
	flat.Each(func(row Row) { want = append(want, fmt.Sprintf("%v×%d", row.Tuple, row.Count)) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Each reads\n  %v\nthe flat table\n  %v", where, got, want)
	}
	var buf []Row
	for _, tu := range probes {
		if s.Count(tu) != flat.Count(tu) || s.Has(tu) != flat.Has(tu) {
			t.Fatalf("%s: Count(%v) = %d, the flat table's %d", where, tu, s.Count(tu), flat.Count(tu))
		}
		kb := tu.AppendKey(nil)
		row, ok := s.Stored(kb)
		frow, fok := flat.Stored(kb)
		if ok != fok || row.Count != frow.Count || ok && row.Key() != string(kb) {
			t.Fatalf("%s: Stored(%v) = %v %v, the flat table's %v %v", where, tu, row, ok, frow, fok)
		}
		for _, c := range cols {
			kv := tu.Project(c)
			run := LookupRun(s, c, kv, &buf)
			fr := LookupRun(flat, c, kv, nil)
			got, want = got[:0], want[:0]
			for i := range run.Len() {
				got = append(got, fmt.Sprintf("%v×%d", run.Row(i).Tuple, run.Row(i).Count))
			}
			for i := range fr.Len() {
				want = append(want, fmt.Sprintf("%v×%d", fr.Row(i).Tuple, fr.Row(i).Count))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: LookupRun(%v, %v) reads %v, the flat table's %v", where, c, kv, got, want)
			}
		}
	}
	for col := range max(flat.Arity(), 0) {
		if s.DistinctEst(col) != flat.DistinctEst(col) {
			t.Fatalf("%s: DistinctEst(%d) = %d, the flat table's %d", where, col, s.DistinctEst(col), flat.DistinctEst(col))
		}
	}
	checkRuns(t, where, s.base)
	checkRuns(t, where, s.net)
}

// tableStored feeds a published Stored and one table the same stream of
// deltas — inserts, deletes of stored rows, count bumps, and bulk ones
// that take the net past its bound — and after each holds the Stored, and
// the version it published, to the table; a rebase makes a base exactly
// the size of its rows.
func tableStored(t *testing.T, rng *rand.Rand) {
	cols := [][]int{{0}, {1}, {0, 1}}
	tuple := func() value.Tuple { return value.T(rng.Intn(40), fmt.Sprintf("v%d", rng.Intn(30))) }
	rebases := 0
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
		for op := 0; op < 60; op++ {
			d, rows := New(2), flat.Rows()
			n := 1 + rng.Intn(12)
			if op%15 == 14 {
				n = minFlattenRows + rng.Intn(flat.Len()/2+1)
			}
			for i := 0; i < n; i++ {
				switch k := rng.Intn(3); {
				case k == 0 && len(rows) > 0:
					row := rows[rng.Intn(len(rows))]
					d.AddRow(row.WithCount(-row.Count - d.Count(row.Tuple)))
				case k == 1 && len(rows) > 0:
					d.AddRow(rows[rng.Intn(len(rows))].WithCount(int64(rng.Intn(5) - 2)))
				default:
					d.Add(tuple(), int64(rng.Intn(3)+1))
				}
			}
			prev := s.base
			flat.MergeDelta(d)
			s.MergeDelta(d)
			v = s.Publish(v, d)
			where := fmt.Sprintf("trial %d op %d", trial, op)
			probes := []value.Tuple{tuple(), tuple()}
			d.Each(func(row Row) { probes = append(probes, row.Tuple) })
			sameAsFlat(t, where, s, flat, cols, probes...)
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
	if rebases < 6 {
		t.Fatalf("%d rebases over the streams, want several", rebases)
	}
}

// A rebase that shrinks its relation copies the base once, at the new
// size: it allocates one table of the state's rows and, for the index it
// carries, a key table and the runs it writes — no table at the old size,
// and no second copy to trim one.
func TestRebaseCopiesItsBaseOnce(t *testing.T) {
	base := New(2)
	for i := range 4000 {
		base.Add(value.T(i, i%50), 1)
	}
	base.Lookup([]int{1}, value.T(0))
	base.Freeze()
	s := Store(base)
	LookupInto(s, []int{1}, value.T(0), new([]Row))
	del := New(2)
	for i := range s.bound() - 1 { // deletes at the front: each moves the last row into the net
		del.Add(value.T(i, i%50), -1)
	}
	s.MergeDelta(del)
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
	sameAsFlat(t, "after the shrinking rebase", s, flat, [][]int{{1}}, value.T(3999, 49), value.T(0, 0), value.T(2500, 0))
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
