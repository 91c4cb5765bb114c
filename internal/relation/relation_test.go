package relation

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ivm/internal/value"
)

func rel(rows ...Row) *Relation { return FromRows(-1, rows) }

func row(count int64, vals ...any) Row { return Row{Tuple: value.T(vals...), Count: count} }

func TestAddMergeCancel(t *testing.T) {
	r := New(2)
	r.Add(value.T("a", "b"), 2)
	r.Add(value.T("a", "b"), -1)
	if got := r.Count(value.T("a", "b")); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	r.Add(value.T("a", "b"), -1)
	if r.Len() != 0 {
		t.Fatal("zero-count tuples must vanish")
	}
	r.Add(value.T("a", "b"), 0)
	if r.Len() != 0 {
		t.Fatal("adding count 0 is a no-op")
	}
}

func TestUnionPlusPaperSemantics(t *testing.T) {
	// Section 3: S1 ⊎ S2 adds counts, dropping zero results.
	s1 := rel(row(4, "a", "b"), row(-2, "m", "n"))
	s2 := rel(row(-4, "a", "b"), row(5, "m", "n"), row(1, "x", "y"))
	u := UnionPlus(s1, s2)
	if u.Count(value.T("a", "b")) != 0 {
		t.Error("ab cancels")
	}
	if u.Count(value.T("m", "n")) != 3 {
		t.Error("mn = 3")
	}
	if u.Count(value.T("x", "y")) != 1 {
		t.Error("xy = 1")
	}
	if u.Len() != 2 {
		t.Errorf("len = %d", u.Len())
	}
	// Inputs untouched.
	if s1.Count(value.T("a", "b")) != 4 || s2.Count(value.T("m", "n")) != 5 {
		t.Error("UnionPlus must not mutate inputs")
	}
}

func TestHasIsPositiveCount(t *testing.T) {
	r := rel(row(-1, "a"))
	if r.Has(value.T("a")) {
		t.Error("negative-count tuples are not 'true'")
	}
	if !rel(row(2, "a")).Has(value.T("a")) {
		t.Error("positive count is true")
	}
}

func TestSetDelete(t *testing.T) {
	r := rel(row(5, "a"))
	r.Set(value.T("a"), 2)
	if r.Count(value.T("a")) != 2 {
		t.Error("Set")
	}
	r.Set(value.T("b"), 3)
	if r.Count(value.T("b")) != 3 {
		t.Error("Set on absent")
	}
	r.Delete(value.T("a"))
	if r.Count(value.T("a")) != 0 || r.Len() != 1 {
		t.Error("Delete")
	}
}

func TestToSetAndSetDiff(t *testing.T) {
	r := rel(row(3, "a"), row(1, "b"), row(-2, "c"))
	s := r.ToSet()
	if s.Count(value.T("a")) != 1 || s.Count(value.T("b")) != 1 || s.Len() != 2 {
		t.Errorf("ToSet: %v", s)
	}
	a := rel(row(2, "x"), row(1, "y"))
	b := rel(row(1, "y"), row(4, "z"))
	d := SetDiff(a, b)
	if d.Count(value.T("x")) != 1 || d.Count(value.T("z")) != -1 || d.Count(value.T("y")) != 0 {
		t.Errorf("SetDiff: %v", d)
	}
}

// Diff is what merged into old makes new; a row old holds keeps old's
// stored tuple.
func TestDiff(t *testing.T) {
	old := rel(row(2, "a"), row(1, "b"), row(1, "c"))
	new := rel(row(1, "a"), row(1, "b"), row(3, "d"))
	d := Diff(old, new)
	if d.Count(value.T("a")) != -1 || d.Count(value.T("c")) != -1 || d.Count(value.T("d")) != 3 || d.Len() != 3 {
		t.Fatalf("Diff: %v", d)
	}
	if got, want := d.Lookup([]int{0}, value.T("a")), old.Lookup([]int{0}, value.T("a")); &got[0].Tuple[0] != &want[0].Tuple[0] {
		t.Error("Diff copied a tuple old holds")
	}
	merged := old.Clone()
	merged.MergeDelta(d)
	if !Equal(merged, new) {
		t.Fatalf("old ⊎ Diff(old, new) = %v, want %v", merged, new)
	}
}

func TestEqualAndEqualAsSets(t *testing.T) {
	a := rel(row(2, "a"), row(1, "b"))
	b := rel(row(1, "a"), row(1, "b"))
	if Equal(a, b) {
		t.Error("counts differ")
	}
	if !EqualAsSets(a, b) {
		t.Error("same sets")
	}
	if !Equal(a, a.Clone()) {
		t.Error("clone equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := rel(row(1, "a"))
	c := a.Clone()
	c.Add(value.T("a"), 5)
	if a.Count(value.T("a")) != 1 {
		t.Error("clone must not share counts")
	}
}

func TestTotalCountAndNegate(t *testing.T) {
	r := rel(row(3, "a"), row(-1, "b"))
	if r.TotalCount() != 2 {
		t.Errorf("TotalCount = %d", r.TotalCount())
	}
	n := r.Negate()
	if n.Count(value.T("a")) != -3 || n.Count(value.T("b")) != 1 {
		t.Errorf("Negate: %v", n)
	}
}

func TestArityEnforcement(t *testing.T) {
	r := New(2)
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic (internal invariant)")
		}
	}()
	r.Add(value.T("a"), 1)
}

// SortedRows is one strictly increasing order whatever order the rows went
// in — ±0, NaN, 1 beside 1.0 and ints beyond 2^53 included.
func TestSortedRowsDeterministic(t *testing.T) {
	r := rel(row(1, "b"), row(1, "a"), row(1, "c"))
	rows := r.SortedRows()
	if len(rows) != 3 || rows[0].Tuple[0].Str() != "a" || rows[2].Tuple[0].Str() != "c" {
		t.Errorf("sorted: %v", rows)
	}
	vals := []value.Value{
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()),
		value.NewFloat(1), value.NewInt(1), value.NewFloat(-1), value.NewString("a"),
		value.NewInt(1 << 53), value.NewInt(1<<53 + 1), value.NewFloat(1 << 53),
	}
	rng := rand.New(rand.NewSource(31))
	var first string
	for i := 0; i < 200; i++ {
		rng.Shuffle(len(vals), func(a, b int) { vals[a], vals[b] = vals[b], vals[a] })
		r := New(1)
		for _, v := range vals {
			r.Add(value.Tuple{v}, 1)
		}
		var order strings.Builder
		rows := r.SortedRows()
		for j, row := range rows {
			if j > 0 && rows[j-1].Tuple.Compare(row.Tuple) >= 0 {
				t.Fatalf("SortedRows = %v: not increasing at %d", rows, j)
			}
			order.WriteString(row.Key())
		}
		if i == 0 {
			first = order.String()
		} else if order.String() != first {
			t.Fatalf("SortedRows = %q after insertion order %v, want %q", order.String(), vals, first)
		}
	}
}

func TestStringRendering(t *testing.T) {
	r := rel(row(2, "a", "b"), row(1, "m", "n"))
	if got := r.String(); got != "{(a, b) 2, (m, n)}" {
		t.Errorf("String: %q", got)
	}
}

func TestLookupIndexMaintenance(t *testing.T) {
	r := New(2)
	r.Add(value.T("a", "b"), 1)
	r.Add(value.T("a", "c"), 2)
	r.Add(value.T("x", "b"), 1)

	rows := r.Lookup([]int{0}, value.T("a"))
	if len(rows) != 2 {
		t.Fatalf("lookup a: %d rows", len(rows))
	}
	// Index must track subsequent mutations.
	r.Add(value.T("a", "d"), 1)
	if len(r.Lookup([]int{0}, value.T("a"))) != 3 {
		t.Fatal("index must see inserts")
	}
	r.Add(value.T("a", "c"), -2)
	rows = r.Lookup([]int{0}, value.T("a"))
	if len(rows) != 2 {
		t.Fatalf("index must see deletes: %d rows", len(rows))
	}
	// Count updates inside runs.
	r.Add(value.T("a", "b"), 4)
	for _, rw := range r.Lookup([]int{0}, value.T("a")) {
		if rw.Tuple.Equal(value.T("a", "b")) && rw.Count != 5 {
			t.Fatalf("run count = %d, want 5", rw.Count)
		}
	}
	// Second-column index coexists.
	if len(r.Lookup([]int{1}, value.T("b"))) != 2 {
		t.Fatal("second index")
	}
}

func TestLookupQuickAgainstScan(t *testing.T) {
	f := func(ops []struct {
		A, B  uint8
		Count int8
	}) bool {
		r := New(2)
		for _, op := range ops {
			r.Add(value.T(int64(op.A%8), int64(op.B%8)), int64(op.Count))
			// Force index creation early so maintenance paths run.
			r.Lookup([]int{0}, value.T(int64(3)))
		}
		// Compare Lookup against a full scan for every key.
		for k := int64(0); k < 8; k++ {
			want := make(map[string]int64)
			r.Each(func(rw Row) {
				if rw.Tuple[0] == value.NewInt(k) {
					want[rw.Tuple.Key()] = rw.Count
				}
			})
			got := make(map[string]int64)
			for _, rw := range r.Lookup([]int{0}, value.T(k)) {
				got[rw.Tuple.Key()] = rw.Count
			}
			if len(got) != len(want) {
				return false
			}
			for key, c := range want {
				if got[key] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func tup(vals ...any) value.Tuple { return value.T(vals...) }

// TestConcurrentLookupBuildsIndexOnce: hammering Lookup from many
// goroutines (forcing the lazy index build) must be race-free and agree
// with sequential results. Run with -race to check the guarantee.
func TestConcurrentLookupBuildsIndexOnce(t *testing.T) {
	r := New(2)
	for i := 0; i < 200; i++ {
		r.Add(tup(fmt.Sprintf("k%d", i%20), fmt.Sprintf("v%d", i)), 1)
	}
	want := len(r.Lookup([]int{0}, tup("k3")))

	fresh := New(2)
	r.Each(func(row Row) { fresh.Add(row.Tuple, row.Count) })
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := len(fresh.Lookup([]int{0}, tup("k3"))); got != want {
					t.Errorf("worker %d: lookup returned %d rows, want %d", w, got, want)
					return
				}
				// A second column signature exercises concurrent builds of
				// distinct indexes too.
				fresh.Lookup([]int{1}, tup(fmt.Sprintf("v%d", i)))
			}
		}(w)
	}
	wg.Wait()
}

func TestMergeDeltaQuickMatchesUnionPlus(t *testing.T) {
	f := func(a, b []struct {
		K uint8
		C int8
	}) bool {
		ra, rb := New(1), New(1)
		for _, x := range a {
			ra.Add(value.T(int64(x.K%16)), int64(x.C))
		}
		for _, x := range b {
			rb.Add(value.T(int64(x.K%16)), int64(x.C))
		}
		u := UnionPlus(ra, rb)
		ra.MergeDelta(rb)
		return Equal(u, ra)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetEmptiesForReuse(t *testing.T) {
	r := New(2)
	r.Add(value.T("a", "b"), 2)
	r.Add(value.T("a", "c"), 1)
	if len(r.Lookup([]int{0}, value.T("a"))) != 2 || r.DistinctEst(1) != 2 {
		t.Fatal("setup: index and stats built over two rows")
	}
	built := IndexesBuilt()
	r.Reset()
	if r.Len() != 0 || !r.Empty() || r.Arity() != 2 || r.Has(value.T("a", "b")) {
		t.Fatalf("after Reset: len %d arity %d", r.Len(), r.Arity())
	}
	if r.PreferredIndex([]int{0}) != nil || r.stats != nil {
		t.Fatal("Reset keeps an index or the stats")
	}
	r.Add(value.T("a", "d"), 1)
	rows := r.Lookup([]int{0}, value.T("a"))
	if len(rows) != 1 || !rows[0].Tuple.Equal(value.T("a", "d")) || IndexesBuilt() != built+1 {
		t.Fatalf("Lookup after Reset must rebuild over the new rows only: %v", rows)
	}
	if r.DistinctEst(1) != 1 {
		t.Fatalf("DistinctEst after Reset = %d, want 1", r.DistinctEst(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity survives Reset: a 1-tuple must still be refused")
		}
	}()
	r.Add(value.T("x"), 1)
}

func TestResetOfFrozenRelationPanics(t *testing.T) {
	r := rel(row(1, "a"))
	r.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a frozen relation must panic")
		}
	}()
	r.Reset()
}
