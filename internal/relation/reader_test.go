package relation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ivm/internal/value"
)

func TestOverlayBasics(t *testing.T) {
	base := rel(row(2, "a"), row(1, "b"))
	delta := rel(row(-2, "a"), row(1, "c"), row(1, "b"))
	o := Overlay(base, delta)

	if o.Count(value.T("a")) != 0 || o.Has(value.T("a")) {
		t.Error("a cancels")
	}
	if o.Count(value.T("b")) != 2 {
		t.Error("b = 2")
	}
	if o.Count(value.T("c")) != 1 {
		t.Error("c = 1")
	}

	got := Materialize(o)
	want := base.Clone()
	want.MergeDelta(delta)
	if !Equal(got, want) {
		t.Fatalf("Each mismatch: %v vs %v", got, want)
	}
}

func TestOverlayNilAndEmptyDelta(t *testing.T) {
	base := rel(row(1, "a"))
	if Overlay(base, nil) != Reader(base) {
		t.Error("nil delta returns base")
	}
	if Overlay(base, New(1)) != Reader(base) {
		t.Error("empty delta returns base")
	}
}

func TestOverlayLookup(t *testing.T) {
	base := New(2)
	base.Add(value.T("a", "b"), 1)
	base.Add(value.T("a", "c"), 1)
	delta := New(2)
	delta.Add(value.T("a", "b"), -1) // delete
	delta.Add(value.T("a", "d"), 1)  // insert
	o := Overlay(base, delta)

	rows := LookupInto(o, []int{0}, value.T("a"), new([]Row))
	got := make(map[string]int64)
	for _, rw := range rows {
		got[rw.Tuple.Key()] = rw.Count
	}
	if len(got) != 2 {
		t.Fatalf("lookup: %v", got)
	}
	if got[value.T("a", "c").Key()] != 1 || got[value.T("a", "d").Key()] != 1 {
		t.Fatalf("lookup contents: %v", got)
	}
}

// hubOverlay is base ⊎ delta where one key, "hub", has a run of n rows on
// each side: the delta cancels every other base row and adds as many rows
// the base does not have.
func hubOverlay(n int) Reader {
	base, delta := New(2), New(2)
	for i := 0; i < n; i++ {
		base.Add(value.T("hub", i), 1)
		if i%2 == 0 {
			delta.Add(value.T("hub", i), -1)
		} else {
			delta.Add(value.T("hub", n+i), 1)
		}
	}
	return Overlay(base, delta)
}

// TestOverlayLookupLongRuns probes a hub whose base and delta runs both
// hold 2 000 rows: the merge answers as the materialized overlay does and,
// once the caller's buffer has grown, allocates nothing.
func TestOverlayLookupLongRuns(t *testing.T) {
	const n = 2000
	o := hubOverlay(n)
	cols, key := []int{0}, value.T("hub")
	want := map[string]int64{}
	for _, row := range Materialize(o).Lookup(cols, key) {
		want[row.Key()] = row.Count
	}
	var buf []Row
	got := LookupInto(o, cols, key, &buf)
	if len(got) != n || len(want) != n {
		t.Fatalf("merged run has %d rows, materialized %d, want %d", len(got), len(want), n)
	}
	for _, row := range got {
		if want[row.Key()] != row.Count {
			t.Fatalf("%v has count %d, materialized %d", row.Tuple, row.Count, want[row.Key()])
		}
	}
	if a := testing.AllocsPerRun(10, func() { LookupInto(o, cols, key, &buf) }); a != 0 {
		t.Fatalf("a warmed merge allocates %.0f objects, want 0", a)
	}
}

func TestOverlayComposes(t *testing.T) {
	base := rel(row(1, "a"))
	d1 := rel(row(1, "b"))
	d2 := rel(row(-1, "a"))
	o := Overlay(Overlay(base, d1), d2)
	if o.Has(value.T("a")) || !o.Has(value.T("b")) {
		t.Error("stacked overlays")
	}
	if Materialize(o).Len() != 1 {
		t.Error("materialized stacked overlay")
	}
}

func TestSetImage(t *testing.T) {
	base := rel(row(5, "a"), row(1, "b"))
	s := SetImage(base)
	if s.Count(value.T("a")) != 1 {
		t.Error("counts collapse to 1")
	}
	if s.Count(value.T("zzz")) != 0 {
		t.Error("absent stays 0")
	}
	if SetImage(s) != s {
		t.Error("SetImage is idempotent (no double wrap)")
	}
	m := Materialize(s)
	if m.TotalCount() != 2 || m.Len() != 2 {
		t.Errorf("materialized set image: %v", m)
	}
	// Lookup collapses too.
	base2 := New(2)
	base2.Add(value.T("a", "b"), 7)
	rows := LookupInto(SetImage(base2), []int{0}, value.T("a"), new([]Row))
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Errorf("set lookup: %v", rows)
	}
}

func TestSetImageOverOverlay(t *testing.T) {
	base := rel(row(2, "a"))
	delta := rel(row(-1, "a"), row(3, "b"))
	s := SetImage(Overlay(base, delta))
	if s.Count(value.T("a")) != 1 || s.Count(value.T("b")) != 1 {
		t.Error("set of overlay")
	}
}

// TestOverlayQuick checks Overlay ≡ base ⊎ delta on random inputs for Count,
// Has, Each and Lookup.
func TestOverlayQuick(t *testing.T) {
	f := func(a, b []struct {
		K uint8
		C int8
	}) bool {
		base, delta := New(1), New(1)
		for _, x := range a {
			base.Add(value.T(int64(x.K%10)), int64(x.C))
		}
		for _, x := range b {
			delta.Add(value.T(int64(x.K%10)), int64(x.C))
		}
		o := Overlay(base, delta)
		want := base.Clone()
		want.MergeDelta(delta)
		if !Equal(Materialize(o), want) {
			return false
		}
		for k := int64(0); k < 10; k++ {
			if o.Count(value.T(k)) != want.Count(value.T(k)) {
				return false
			}
			if o.Has(value.T(k)) != want.Has(value.T(k)) {
				return false
			}
			lr := LookupInto(o, []int{0}, value.T(k), new([]Row))
			wc := want.Count(value.T(k))
			switch {
			case wc == 0 && len(lr) != 0:
				return false
			case wc != 0 && (len(lr) != 1 || lr[0].Count != wc):
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// readersAgree checks got against want on everything a Reader answers
// exactly (a view's Len may estimate): arity, the rows Each visits, Count
// and Has over the key space (present and absent tuples alike), and
// Lookup on every column set.
func readersAgree(t *testing.T, rng *rand.Rand, keys int, got Reader, want *Relation, where string) {
	t.Helper()
	if got.Arity() != want.Arity() {
		t.Fatalf("%s: arity %d, want %d", where, got.Arity(), want.Arity())
	}
	if m := Materialize(got); !Equal(m, want) {
		t.Fatalf("%s: Each visits %v, want %v", where, m, want)
	}
	for k := 0; k < keys; k++ {
		for p := 0; p < 3; p++ {
			tup := value.T(k, fmt.Sprintf("p%d", p))
			if got.Count(tup) != want.Count(tup) || got.Has(tup) != want.Has(tup) {
				t.Fatalf("%s: Count/Has(%v) = %d/%v, want %d/%v", where, tup,
					got.Count(tup), got.Has(tup), want.Count(tup), want.Has(tup))
			}
		}
	}
	for _, cols := range [][]int{{0}, {1}, {0, 1}} {
		lookupAgrees(t, rng, keys, got, want, cols, where)
	}
}

// TestRowSliceAgreesWithRelation holds Refs, the reference slice that
// replaced the row slice, to the relation of its rows at count 1. The rows
// it refers to outlive the relations that stored them: those are reset
// before it is read.
func TestRowSliceAgreesWithRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var rows Refs
	for trial := 0; trial < 50; trial++ {
		const keys = 12
		src := randomDelta(rng, keys, 1+rng.Intn(40))
		if src.Empty() {
			continue
		}
		want := src.Pick(func(int, int64) int64 { return 1 })
		rows.Reset()
		for p := range src.Len() {
			rows.Append(src, p)
		}
		src.Reset()
		if rows.Len() != want.Len() {
			t.Fatalf("Len %d, want %d", rows.Len(), want.Len())
		}
		for i := range rows.Len() {
			if got := rows.At(i); got.Key() != want.At(i).Key() || got.Count != 1 {
				t.Fatalf("row %d is %v %d, want %v 1", i, got.Tuple, got.Count, want.At(i).Tuple)
			}
		}
		readersAgree(t, rng, keys, &rows, want, "whole")
	}
	if rows.Reset(); rows.Arity() != -1 || rows.Len() != 0 || rows.Has(value.T(1, "p0")) ||
		len(LookupInto(&rows, []int{0}, value.T(1), new([]Row))) != 0 {
		t.Fatal("emptied Refs have unknown arity and no rows")
	}
}

// TestPlacesAgreeWithRefs holds Places, the window of a stored relation's
// places a round of DRed's steps 1 and 2 reads, to Refs over the same rows
// and to their relation at count 1: Len, At, Each, Count, Has and lookups
// on every column set, over a published state whose places hold base and
// net rows alike, and empty.
func TestPlacesAgreeWithRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const keys = 12
	for trial := 0; trial < 40; trial++ {
		s := Store(randomDelta(rng, keys, 40).Pick(func(int, int64) int64 { return 1 }))
		s.Publish(nil, nil)
		d, seen := New(2), map[string]bool{}
		for range 8 { // deletes move the last row into the hole, inserts take new places: net rows
			if tup := value.T(rng.Intn(keys), fmt.Sprintf("p%d", rng.Intn(3))); !seen[tup.Key()] {
				seen[tup.Key()] = true
				d.Add(tup, map[bool]int64{true: -1, false: 1}[s.Has(tup)])
			}
		}
		s.MergeDelta(d)
		var ps []int32
		for _, p := range rng.Perm(s.Len())[:rng.Intn(s.Len()+1)] {
			ps = append(ps, int32(p))
		}
		w, want := s.Places(ps), s.Gather(ps, 1)
		var refs Refs
		for i := range want.Len() {
			refs.Append(want, i)
		}
		if w.Len() != len(ps) || refs.Len() != len(ps) {
			t.Fatalf("Len: places %d, refs %d, want %d", w.Len(), refs.Len(), len(ps))
		}
		for i := range w.Len() {
			if got := w.At(i); got.Key() != refs.At(i).Key() || got.Key() != s.rowAt(int(ps[i])).Key() || got.Count != 1 {
				t.Fatalf("At(%d) = %v %d, refs %v, place %d holds %v", i, got.Tuple, got.Count, refs.At(i).Tuple, ps[i], s.rowAt(int(ps[i])).Tuple)
			}
		}
		if len(ps) == 0 {
			for _, r := range []Reader{&w, &refs} {
				if r.Arity() != -1 || r.Len() != 0 || r.Has(value.T(1, "p0")) || len(LookupInto(r, []int{0}, value.T(1), new([]Row))) != 0 {
					t.Fatalf("empty %T: arity %d, %d rows", r, r.Arity(), r.Len())
				}
			}
			continue
		}
		readersAgree(t, rng, keys, &w, want, "places")
		readersAgree(t, rng, keys, &refs, want, "refs")
	}
}
