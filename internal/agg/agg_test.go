package agg

import (
	"math"
	"testing"
	"testing/quick"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

func mustNew(t *testing.T, f datalog.AggFunc) State {
	t.Helper()
	s, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func addAll(t *testing.T, s State, vals ...int64) {
	t.Helper()
	for _, v := range vals {
		if err := s.Add(value.NewInt(v), 1); err != nil {
			t.Fatal(err)
		}
	}
}

func result(t *testing.T, s State) value.Value {
	t.Helper()
	v, ok := s.Result()
	if !ok {
		t.Fatal("empty group")
	}
	return v
}

func TestUnknownFunc(t *testing.T) {
	if _, err := New("median"); err == nil {
		t.Fatal("unknown function must error")
	}
}

func TestIncrementalClassification(t *testing.T) {
	if Incremental(datalog.AggMin) || Incremental(datalog.AggMax) {
		t.Error("MIN/MAX are not incrementally computable downward")
	}
	for _, f := range []datalog.AggFunc{datalog.AggSum, datalog.AggCount, datalog.AggAvg, datalog.AggVariance} {
		if !Incremental(f) {
			t.Errorf("%s is incrementally computable", f)
		}
	}
}

func TestMinBasics(t *testing.T) {
	s := mustNew(t, datalog.AggMin)
	if _, ok := s.Result(); ok {
		t.Fatal("empty min")
	}
	addAll(t, s, 5, 3, 9)
	if result(t, s).Int() != 3 {
		t.Fatalf("min = %v", result(t, s))
	}
	// Removing a non-minimum is exact.
	if rescan, err := s.Remove(value.NewInt(9), 1); err != nil || rescan {
		t.Fatalf("remove 9: rescan=%v err=%v", rescan, err)
	}
	if result(t, s).Int() != 3 {
		t.Fatal("min unchanged")
	}
	// Removing the unique minimum forces a rescan.
	rescan, err := s.Remove(value.NewInt(3), 1)
	if err != nil || !rescan {
		t.Fatalf("remove min: rescan=%v err=%v", rescan, err)
	}
	if _, ok := s.Result(); ok {
		t.Fatal("state is invalid after a rescan request")
	}
}

func TestMinDuplicatedExtremum(t *testing.T) {
	s := mustNew(t, datalog.AggMin)
	addAll(t, s, 3, 3, 7)
	if rescan, err := s.Remove(value.NewInt(3), 1); err != nil || rescan {
		t.Fatalf("removing one of two minima must stay exact: rescan=%v err=%v", rescan, err)
	}
	if result(t, s).Int() != 3 {
		t.Fatal("min still 3")
	}
}

// -0.0 and NaN are not copies of 0.0 but values below it (Compare's order),
// so MIN{0.0, -0.0} is -0.0 and MIN{0.0, NaN} is NaN, whichever went in
// first, and removing 0.0 needs no rescan.
func TestMinTieIsNotACopy(t *testing.T) {
	for _, low := range []value.Value{value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN())} {
		for _, in := range [][]value.Value{{value.NewFloat(0), low}, {low, value.NewFloat(0)}} {
			s := mustNew(t, datalog.AggMin)
			for _, v := range in {
				if err := s.Add(v, 1); err != nil {
					t.Fatal(err)
				}
			}
			if got := result(t, s); got != low {
				t.Fatalf("MIN%v = %v, want %v", in, got, low)
			}
			if rescan, err := s.Remove(value.NewFloat(0), 1); err != nil || rescan || result(t, s) != low {
				t.Fatalf("removing 0.0 from %v: rescan=%v err=%v, want %v kept", in, rescan, err, low)
			}
		}
	}
}

func TestMinRemoveLastMember(t *testing.T) {
	s := mustNew(t, datalog.AggMin)
	addAll(t, s, 4)
	rescan, err := s.Remove(value.NewInt(4), 1)
	if err != nil || rescan {
		t.Fatalf("emptying the group is exact: rescan=%v err=%v", rescan, err)
	}
	if _, ok := s.Result(); ok {
		t.Fatal("group empty")
	}
}

func TestMinMultiplicity(t *testing.T) {
	s := mustNew(t, datalog.AggMin)
	if err := s.Add(value.NewInt(2), 3); err != nil {
		t.Fatal(err)
	}
	if rescan, _ := s.Remove(value.NewInt(2), 2); rescan {
		t.Fatal("two of three copies removed: exact")
	}
	if result(t, s).Int() != 2 {
		t.Fatal("min still 2")
	}
}

func TestMaxMirrorsMin(t *testing.T) {
	s := mustNew(t, datalog.AggMax)
	addAll(t, s, 5, 3, 9)
	if result(t, s).Int() != 9 {
		t.Fatal("max = 9")
	}
	if rescan, _ := s.Remove(value.NewInt(3), 1); rescan {
		t.Fatal("removing non-max is exact")
	}
	if rescan, _ := s.Remove(value.NewInt(9), 1); !rescan {
		t.Fatal("removing the max needs a rescan")
	}
}

func TestMinOverStrings(t *testing.T) {
	s := mustNew(t, datalog.AggMin)
	for _, x := range []string{"pear", "apple", "fig"} {
		if err := s.Add(value.NewString(x), 1); err != nil {
			t.Fatal(err)
		}
	}
	if result(t, s).Str() != "apple" {
		t.Fatalf("min string = %v", result(t, s))
	}
}

func TestSumIntExactAndFloatSwitch(t *testing.T) {
	s := mustNew(t, datalog.AggSum)
	addAll(t, s, 1, 2, 3)
	if got := result(t, s); got.Kind() != value.Int || got.Int() != 6 {
		t.Fatalf("sum = %v", got)
	}
	if err := s.Add(value.NewFloat(0.5), 1); err != nil {
		t.Fatal(err)
	}
	if got := result(t, s); got.Kind() != value.Float || got.Float() != 6.5 {
		t.Fatalf("sum after float = %v", got)
	}
	if _, err := s.Remove(value.NewInt(2), 1); err != nil {
		t.Fatal(err)
	}
	if got := result(t, s); math.Abs(got.Float()-4.5) > 1e-12 {
		t.Fatalf("sum after remove = %v", got)
	}
}

// SUM, AVG and VARIANCE refuse a string, and a NaN or ±Inf too: once
// summed, no removal takes one back out (NaN − NaN and Inf − Inf are NaN).
func TestSumRejectsStrings(t *testing.T) {
	for _, f := range []datalog.AggFunc{datalog.AggSum, datalog.AggAvg, datalog.AggVariance} {
		for _, v := range []value.Value{value.NewString("x"), value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1))} {
			s := mustNew(t, f)
			addAll(t, s, 1)
			if err := s.Add(v, 1); err == nil {
				t.Errorf("%s: Add(%v) must error", f, v)
			}
			if _, err := s.Remove(v, 1); err == nil {
				t.Errorf("%s: Remove(%v) must error", f, v)
			}
			want := mustNew(t, f)
			addAll(t, want, 1)
			if got := result(t, s); got != result(t, want) {
				t.Errorf("%s over {1} after refusing %v = %v, want %v", f, v, got, result(t, want))
			}
		}
	}
}

func TestCount(t *testing.T) {
	s := mustNew(t, datalog.AggCount)
	if err := s.Add(value.NewString("anything"), 2); err != nil {
		t.Fatal(err)
	}
	addAll(t, s, 7)
	if result(t, s).Int() != 3 {
		t.Fatalf("count = %v", result(t, s))
	}
	if _, err := s.Remove(value.NewInt(7), 1); err != nil {
		t.Fatal(err)
	}
	if result(t, s).Int() != 2 {
		t.Fatal("count = 2")
	}
	if _, err := s.Remove(value.NewString("anything"), 3); err == nil {
		t.Fatal("underflow must error")
	}
}

func TestAvg(t *testing.T) {
	s := mustNew(t, datalog.AggAvg)
	addAll(t, s, 2, 4, 6)
	if got := result(t, s).Float(); got != 4 {
		t.Fatalf("avg = %v", got)
	}
	if _, err := s.Remove(value.NewInt(6), 1); err != nil {
		t.Fatal(err)
	}
	if got := result(t, s).Float(); got != 3 {
		t.Fatalf("avg = %v", got)
	}
}

func TestVariance(t *testing.T) {
	s := mustNew(t, datalog.AggVariance)
	addAll(t, s, 2, 4, 4, 4, 5, 5, 7, 9)
	if got := result(t, s).Float(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("variance = %v, want 4", got)
	}
	// Removing back to a singleton gives variance 0.
	for _, x := range []int64{2, 4, 4, 4, 5, 5, 7} {
		if _, err := s.Remove(value.NewInt(x), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := result(t, s).Float(); got != 0 {
		t.Fatalf("singleton variance = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, f := range []datalog.AggFunc{datalog.AggMin, datalog.AggMax, datalog.AggSum, datalog.AggCount, datalog.AggAvg, datalog.AggVariance} {
		s := mustNew(t, f)
		addAll(t, s, 5)
		c := mustNew(t, f)
		addAll(t, c, 7, 9) // Set overwrites what c held
		c.Set(s)
		addAll(t, c, 100)
		v1, _ := s.Result()
		if f == datalog.AggMin && v1.Int() != 5 {
			t.Errorf("%s: copy leaked into original", f)
		}
		if f == datalog.AggCount && v1.Int() != 1 {
			t.Errorf("%s: copy leaked into original", f)
		}
		if v2, _ := c.Result(); f == datalog.AggCount && v2.Int() != 2 {
			t.Errorf("%s: copy holds %v, want 2", f, v2)
		}
	}
}

// TestSumQuickAddRemoveInverse: any interleaving of adds then removes of
// the same multiset returns the state to empty.
func TestSumQuickAddRemoveInverse(t *testing.T) {
	f := func(vals []int16) bool {
		s, _ := New(datalog.AggSum)
		for _, v := range vals {
			if s.Add(value.NewInt(int64(v)), 1) != nil {
				return false
			}
		}
		for _, v := range vals {
			if _, err := s.Remove(value.NewInt(int64(v)), 1); err != nil {
				return false
			}
		}
		_, ok := s.Result()
		return !ok // empty again
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMinQuickAgainstOracle: MIN with arbitrary add/remove sequences
// matches a recomputed oracle whenever Remove stayed exact.
func TestMinQuickAgainstOracle(t *testing.T) {
	f := func(ops []int8) bool {
		s, _ := New(datalog.AggMin)
		multiset := map[int64]int64{}
		for _, op := range ops {
			v := int64(op % 8)
			if op >= 0 {
				if s.Add(value.NewInt(v), 1) != nil {
					return false
				}
				multiset[v]++
				continue
			}
			if multiset[v] == 0 {
				continue // invalid removal; skip
			}
			rescan, err := s.Remove(value.NewInt(v), 1)
			if err != nil {
				return false
			}
			multiset[v]--
			if rescan {
				// rebuild, as the engine would
				s, _ = New(datalog.AggMin)
				for mv, n := range multiset {
					if n > 0 {
						if s.Add(value.NewInt(mv), n) != nil {
							return false
						}
					}
				}
			}
		}
		// Compare with oracle.
		var want *int64
		for mv, n := range multiset {
			if n > 0 && (want == nil || mv < *want) {
				v := mv
				want = &v
			}
		}
		got, ok := s.Result()
		if want == nil {
			return !ok
		}
		return ok && got.Int() == *want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
