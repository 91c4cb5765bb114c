package relation

import (
	"testing"
	"unsafe"

	"ivm/internal/value"
)

// sameRow reports whether two rows share one tuple and one key string.
func sameRow(a, b Row) bool {
	return unsafe.SliceData(a.Tuple) == unsafe.SliceData(b.Tuple) && unsafe.StringData(a.key) == unsafe.StringData(b.key)
}

func stored(t *testing.T, r *Relation, tu value.Tuple) Row {
	t.Helper()
	row, ok := r.Stored(tu.AppendKey(nil))
	if !ok {
		t.Fatalf("%v is not stored in %v", tu, r)
	}
	return row
}

// AddDerived builds a tuple only for a row that neither the relation nor a
// lender holds; a borrowed row is the lender's tuple and key under the
// derived count, and the lender is left as it was.
func TestAddDerivedBorrowsBeforeItBuilds(t *testing.T) {
	first, second := New(2), New(2)
	first.Add(value.T("a", "b"), 7)
	second.Add(value.T("a", "b"), 9) // shadowed: the first lender wins
	second.Add(value.T("c", "d"), 5)
	out := New(2)
	out.BorrowFrom(Store(first), second)

	scratch := value.T("a", "b")
	if got := out.AddDerived(scratch, -1); got != Borrowed {
		t.Fatalf("a tuple the first lender holds: %v, want Borrowed", got)
	}
	if got := out.AddDerived(scratch, -2); got != Merged {
		t.Fatalf("a tuple out holds: %v, want Merged", got)
	}
	copy(scratch, value.T("c", "d"))
	if got := out.AddDerived(scratch, 1); got != Borrowed {
		t.Fatalf("a tuple the second lender holds: %v, want Borrowed", got)
	}
	copy(scratch, value.T("e", "f"))
	if got := out.AddDerived(scratch, 4); got != Built {
		t.Fatalf("a tuple nobody holds: %v, want Built", got)
	}
	if got := out.AddDerived(scratch, 0); got != Merged || out.Count(scratch) != 4 {
		t.Fatalf("a zero count: %v, count %d; want a no-op", got, out.Count(scratch))
	}
	copy(scratch, value.T("x", "y")) // out kept nothing of the scratch tuple

	if got, want := out.String(), "{(a, b) -3, (c, d), (e, f) 4}"; got != want {
		t.Fatalf("out = %s, want %s", got, want)
	}
	if !sameRow(stored(t, out, value.T("a", "b")), stored(t, first, value.T("a", "b"))) {
		t.Error("(a,b) is not the first lender's row")
	}
	if !sameRow(stored(t, out, value.T("c", "d")), stored(t, second, value.T("c", "d"))) {
		t.Error("(c,d) is not the second lender's row")
	}
	if first.Count(value.T("a", "b")) != 7 || second.Count(value.T("a", "b")) != 9 || second.Count(value.T("c", "d")) != 5 {
		t.Errorf("a lender moved: %v %v", first, second)
	}

	// What a scratch output is Reset for: the next evaluation's lenders.
	out.Reset()
	if got := out.AddDerived(value.T("a", "b"), 1); got != Built {
		t.Fatalf("after Reset: %v, want Built (Reset drops the lenders)", got)
	}
	if sameRow(stored(t, out, value.T("a", "b")), stored(t, first, value.T("a", "b"))) {
		t.Error("a built row shares the lender's")
	}
}

// The checks of Add hold for AddDerived: arity, frozen, no zero-count row.
func TestAddDerivedKeepsTheChecksOfAdd(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	lender := New(3)
	lender.Add(value.T(1, 2, 3), 1)
	out := New(2)
	out.BorrowFrom(Store(lender), nil)
	panics("a built row of another arity", func() { out.AddDerived(value.T(1), 1) })
	panics("a borrowed row of another arity", func() { out.AddDerived(value.T(1, 2, 3), 1) })
	if out.Len() != 0 {
		t.Fatalf("a refused row was stored: %v", out)
	}
	out.AddDerived(value.T(1, 2), 2)
	out.AddDerived(value.T(1, 2), -2)
	if out.Len() != 0 || len(out.Rows()) != 0 {
		t.Fatalf("a cancelled row stays: %v", out)
	}
	out.Freeze()
	panics("a frozen relation", func() { out.AddDerived(value.T(1, 2), 1) })
}

// A Relation is allocated per output, per Δ and per version link, so its
// size is paid on every one of them: the row table is one slice (its slots
// share the cells' array), the sketches share the index mutex, and the
// lender pointers fit where padding was. 104 bytes take the 112-byte size
// class; 144 did before the table went dense.
func TestRelationIs104Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Relation{}); got != 104 {
		t.Fatalf("unsafe.Sizeof(Relation{}) = %d, want 104", got)
	}
}

// A merged or borrowed AddDerived allocates nothing.
func TestMergedOrBorrowedAddDerivedAllocatesNothing(t *testing.T) {
	lender := New(2)
	for i := 0; i < 100; i++ {
		lender.Add(value.T(i, i+1), 3)
	}
	scratch := value.T(0, 0)
	out, stored := New(2), Store(lender)
	refill := func() {
		out.Reset()
		out.BorrowFrom(stored, nil)
		for i := 0; i < 100; i++ {
			scratch[0], scratch[1] = value.NewInt(int64(i)), value.NewInt(int64(i+1))
			out.AddDerived(scratch, 1) // borrowed
			out.AddDerived(scratch, 1) // merged
		}
	}
	refill() // grows the table, which Reset keeps
	if a := testing.AllocsPerRun(10, refill); a != 0 {
		t.Fatalf("200 merged or borrowed rows allocate %v objects", a)
	}
}
