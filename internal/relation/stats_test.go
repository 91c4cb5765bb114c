package relation

import (
	"fmt"
	"testing"

	"ivm/internal/value"
)

func TestDistinctEstAccuracy(t *testing.T) {
	for _, tc := range []struct {
		rows, distinct int
	}{
		{0, 0}, {1, 1}, {10, 10}, {100, 4}, {1000, 16}, {5000, 200},
	} {
		r := New(2)
		for i := 0; i < tc.rows; i++ {
			d := 1
			if tc.distinct > 0 {
				d = i % tc.distinct
			}
			r.Add(value.T(fmt.Sprintf("g%d", d), fmt.Sprintf("u%d", i)), 1)
		}
		got := r.DistinctEst(0)
		if tc.rows == 0 {
			if got != 0 {
				t.Errorf("%d rows: DistinctEst(0) = %d, want 0", tc.rows, got)
			}
			continue
		}
		// Linear counting over 256 buckets: accept a factor-2 band, which
		// is far tighter than the 4× drift threshold the planner uses.
		lo, hi := tc.distinct/2, tc.distinct*2
		if tc.distinct > 200 {
			// Past ~bucket saturation the estimate degrades toward Len.
			hi = tc.rows
		}
		if got < lo || got > hi {
			t.Errorf("%d rows, %d distinct: DistinctEst(0) = %d, want within [%d, %d]",
				tc.rows, tc.distinct, got, lo, hi)
		}
	}
}

// A relation reloaded empty has unknown arity until its first insert
// (storage reloads it as New(-1)): an estimate asked for before that must
// not pin zero-column sketches that answer Len ever after.
func TestDistinctEstBeforeArityIsKnown(t *testing.T) {
	known, unknown := New(2), New(-1)
	for _, r := range []*Relation{known, unknown} {
		if got := r.DistinctEst(0); got != 0 {
			t.Fatalf("DistinctEst(0) of an empty relation = %d, want 0", got)
		}
		for i := 0; i < 1000; i++ {
			r.Add(value.T(fmt.Sprintf("g%d", i%10), fmt.Sprintf("u%d", i)), 1)
		}
	}
	want, got := known.DistinctEst(0), unknown.DistinctEst(0)
	if want < 5 || want > 20 || got != want {
		t.Fatalf("1000 rows, 10 distinct: DistinctEst(0) = %d on a relation made with arity -1, %d on one made with arity 2", got, want)
	}
}

func TestDistinctEstMaintainedIncrementally(t *testing.T) {
	r := New(1)
	for i := 0; i < 50; i++ {
		r.Add(value.T(fmt.Sprintf("v%d", i)), 1)
	}
	before := r.DistinctEst(0) // triggers the lazy build
	if before < 25 || before > 100 {
		t.Fatalf("estimate %d after 50 distinct inserts", before)
	}
	// Incremental growth after the build must move the estimate without
	// another scan.
	for i := 50; i < 200; i++ {
		r.Add(value.T(fmt.Sprintf("v%d", i)), 1)
	}
	mid := r.DistinctEst(0)
	if mid <= before {
		t.Fatalf("estimate did not grow with inserts: %d -> %d", before, mid)
	}
	// Deleting most rows must shrink it again (refcounted buckets).
	for i := 10; i < 200; i++ {
		r.Add(value.T(fmt.Sprintf("v%d", i)), -1)
	}
	after := r.DistinctEst(0)
	if after >= mid {
		t.Fatalf("estimate did not shrink with deletes: %d -> %d", mid, after)
	}
	if after < 5 || after > 20 {
		t.Fatalf("estimate %d after shrinking to 10 distinct", after)
	}
}

func TestDistinctEstDuplicateCountsDoNotInflate(t *testing.T) {
	r := New(1)
	r.Add(value.T("a"), 1)
	_ = r.DistinctEst(0) // build
	// Raising a count (same tuple) adds no new distinct value.
	r.Add(value.T("a"), 5)
	r.Add(value.T("b"), 3)
	if got := r.DistinctEst(0); got < 1 || got > 4 {
		t.Fatalf("estimate %d for 2 distinct values with multiplicity", got)
	}
}

func TestDistinctEstOutOfRangeColumn(t *testing.T) {
	r := New(2)
	r.Add(value.T("a", "b"), 1)
	if got := r.DistinctEst(7); got != r.Len() {
		t.Fatalf("out-of-range column: got %d, want Len()=%d", got, r.Len())
	}
}

func TestDistinctEstimateFallback(t *testing.T) {
	r := New(1)
	r.Add(value.T("a"), 1)
	r.Add(value.T("b"), 1)
	// A plain Reader without CardEstimator support falls back to Len.
	if got := DistinctEstimate(SetImage(r), 0); got != 2 {
		t.Fatalf("setView DistinctEstimate = %d, want 2", got)
	}
	ov := Overlay(r, New(1))
	if got := DistinctEstimate(ov, 0); got < 1 || got > 4 {
		t.Fatalf("overlay DistinctEstimate = %d", got)
	}
}

func TestPreferredIndexExactAndSubset(t *testing.T) {
	r := New(3)
	for i := 0; i < 40; i++ {
		r.Add(value.T(fmt.Sprintf("a%d", i%4), fmt.Sprintf("b%d", i%8), fmt.Sprintf("c%d", i)), 1)
	}
	if got := r.PreferredIndex([]int{0}); got != nil {
		t.Fatalf("PreferredIndex before any index exists = %v, want nil", got)
	}
	r.Lookup([]int{1}, value.T("b1")) // build the {1} index
	if got := r.PreferredIndex([]int{1}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("exact match: got %v, want [1]", got)
	}
	if got := r.PreferredIndex([]int{0, 1}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("subset match: got %v, want [1]", got)
	}
	if got := r.PreferredIndex([]int{0, 2}); got != nil {
		t.Fatalf("disjoint bound set: got %v, want nil", got)
	}
	// A wider index wins over a narrower one when both are subsets.
	r.Lookup([]int{0, 1}, value.T("a1", "b1"))
	if got := r.PreferredIndex([]int{0, 1}); len(got) != 2 {
		t.Fatalf("widest subset: got %v, want [0 1]", got)
	}
}

func TestIndexesBuiltCounter(t *testing.T) {
	before := IndexesBuilt()
	r := New(2)
	for i := 0; i < statsBuckets; i++ {
		r.Add(value.T(fmt.Sprintf("x%d", i), "y"), 1)
	}
	r.Lookup([]int{0}, value.T("x1"))
	r.Lookup([]int{0}, value.T("x2")) // cached: no second build
	after := IndexesBuilt()
	if after != before+1 {
		t.Fatalf("IndexesBuilt went %d -> %d across one lazy build", before, after)
	}
}
