package agg

import (
	"math"
	"math/rand"
	"slices"
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

// Every function is incrementally computable both ways: removing values
// leaves what a group built from the rest holds. Only MIN and MAX, whose
// state holds the group's values, are not Scalars.
func TestIncrementalClassification(t *testing.T) {
	for _, f := range []datalog.AggFunc{datalog.AggMin, datalog.AggMax, datalog.AggSum, datalog.AggCount, datalog.AggAvg, datalog.AggVariance} {
		s, rest := mustNew(t, f), mustNew(t, f)
		addAll(t, s, 4, 1, 9, 1, 6)
		addAll(t, rest, 4, 1)
		for _, v := range []int64{9, 1, 6} {
			if err := s.Remove(value.NewInt(v), 1); err != nil {
				t.Fatalf("%s: remove %d: %v", f, v, err)
			}
		}
		if got, want := result(t, s), result(t, rest); got != want {
			t.Errorf("%s over {4, 1, 9, 1, 6} less {9, 1, 6} = %v, want %v", f, got, want)
		}
		if _, scalar := s.(Scalar); scalar == (f == datalog.AggMin || f == datalog.AggMax) {
			t.Errorf("%s: Scalar = %v", f, scalar)
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
	if err := s.Remove(value.NewInt(9), 1); err != nil || result(t, s).Int() != 3 {
		t.Fatalf("remove 9: err=%v, min %v", err, result(t, s))
	}
	// Removing the unique minimum moves to the next value.
	if err := s.Remove(value.NewInt(3), 1); err != nil || result(t, s).Int() != 5 {
		t.Fatalf("remove min: err=%v, min %v", err, result(t, s))
	}
}

func TestMinDuplicatedExtremum(t *testing.T) {
	s := mustNew(t, datalog.AggMin)
	addAll(t, s, 3, 3, 7)
	if err := s.Remove(value.NewInt(3), 1); err != nil || result(t, s).Int() != 3 {
		t.Fatalf("removing one of two minima: err=%v, min %v", err, result(t, s))
	}
	if err := s.Remove(value.NewInt(3), 1); err != nil || result(t, s).Int() != 7 {
		t.Fatalf("removing the other: err=%v, min %v", err, result(t, s))
	}
}

// -0.0 and NaN are not copies of 0.0 but values below it (Compare's order),
// so MIN{0.0, -0.0} is -0.0 and MIN{0.0, NaN} is NaN, whichever went in
// first; removing 0.0 keeps the low value, and removing the low value
// leaves 0.0.
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
			if err := s.Remove(value.NewFloat(0), 1); err != nil || result(t, s) != low {
				t.Fatalf("removing 0.0 from %v: err=%v, want %v kept", in, err, low)
			}
			if err := s.Add(value.NewFloat(0), 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Remove(low, 1); err != nil || result(t, s) != value.NewFloat(0) {
				t.Fatalf("removing %v from %v: err=%v, min %v, want 0.0", low, in, err, result(t, s))
			}
		}
	}
}

// The next extremum is the next value by Compare, whatever the order the
// values came in: 1 and 1.0 are two values (the Int below), NaN is below
// every number, and a removal of copies the group does not hold fails and
// leaves it as it was.
func TestMinNextExtremum(t *testing.T) {
	one, oneF, nan := value.NewInt(1), value.NewFloat(1), value.NewFloat(math.NaN())
	for _, tt := range []struct {
		min  bool
		in   []value.Value
		want []value.Value // the extremum after each removal of the current one
	}{
		{true, []value.Value{oneF, value.NewInt(2), one, nan}, []value.Value{nan, one, oneF, value.NewInt(2)}},
		{false, []value.Value{one, nan, oneF, value.NewInt(0)}, []value.Value{oneF, one, value.NewInt(0), nan}},
		{true, []value.Value{value.NewString("b"), value.NewInt(7), value.NewString("a")}, []value.Value{value.NewInt(7), value.NewString("a"), value.NewString("b")}},
	} {
		s := mustNew(t, map[bool]datalog.AggFunc{true: datalog.AggMin, false: datalog.AggMax}[tt.min])
		for i, v := range tt.in {
			if err := s.Add(v, 1); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				result(t, s) // the first read sorts; later adds insert in order
			}
		}
		for _, want := range tt.want {
			if got := result(t, s); got != want {
				t.Fatalf("min=%v over %v: extremum %v, want %v", tt.min, tt.in, got, want)
			}
			if err := s.Remove(want, 2); err == nil {
				t.Fatalf("min=%v: removing two copies of %v must underflow", tt.min, want)
			}
			if err := s.Remove(want, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.Result(); ok {
			t.Fatalf("min=%v over %v: not empty after removing every value", tt.min, tt.in)
		}
		if err := s.Remove(one, 1); err == nil {
			t.Fatal("removing from an emptied group must underflow")
		}
	}
}

func TestMinRemoveLastMember(t *testing.T) {
	s := mustNew(t, datalog.AggMin)
	addAll(t, s, 4)
	if err := s.Remove(value.NewInt(4), 1); err != nil {
		t.Fatalf("emptying the group: %v", err)
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
	addAll(t, s, 5, 2)
	if err := s.Remove(value.NewInt(2), 3); err != nil || result(t, s).Int() != 2 {
		t.Fatalf("three of four copies removed: err=%v, min %v", err, result(t, s))
	}
	if err := s.Remove(value.NewInt(2), 2); err == nil || result(t, s).Int() != 2 {
		t.Fatalf("two of one copy removed: err=%v, min %v, want an underflow and 2 kept", err, result(t, s))
	}
}

func TestMaxMirrorsMin(t *testing.T) {
	s := mustNew(t, datalog.AggMax)
	addAll(t, s, 5, 3, 9)
	if result(t, s).Int() != 9 {
		t.Fatal("max = 9")
	}
	if err := s.Remove(value.NewInt(3), 1); err != nil || result(t, s).Int() != 9 {
		t.Fatal("removing non-max keeps 9")
	}
	if err := s.Remove(value.NewInt(9), 1); err != nil || result(t, s).Int() != 5 {
		t.Fatal("removing the max moves to 5")
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
	if err := s.Remove(value.NewInt(2), 1); err != nil {
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
			if err := s.Remove(v, 1); err == nil {
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
	if err := s.Remove(value.NewInt(7), 1); err != nil {
		t.Fatal(err)
	}
	if result(t, s).Int() != 2 {
		t.Fatal("count = 2")
	}
	if err := s.Remove(value.NewString("anything"), 3); err == nil {
		t.Fatal("underflow must error")
	}
}

func TestAvg(t *testing.T) {
	s := mustNew(t, datalog.AggAvg)
	addAll(t, s, 2, 4, 6)
	if got := result(t, s).Float(); got != 4 {
		t.Fatalf("avg = %v", got)
	}
	if err := s.Remove(value.NewInt(6), 1); err != nil {
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
		if err := s.Remove(value.NewInt(x), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := result(t, s).Float(); got != 0 {
		t.Fatalf("singleton variance = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, f := range []datalog.AggFunc{datalog.AggSum, datalog.AggCount, datalog.AggAvg, datalog.AggVariance} {
		s := mustNew(t, f)
		addAll(t, s, 5)
		c := mustNew(t, f)
		addAll(t, c, 7, 9) // Set overwrites what c held
		c.(Scalar).Set(s)
		addAll(t, c, 100)
		v1, _ := s.Result()
		if f == datalog.AggSum && v1.Int() != 5 {
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
			if err := s.Remove(value.NewInt(int64(v)), 1); err != nil {
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
// matches a recomputed oracle after every step.
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
			} else if err := s.Remove(value.NewInt(v), 1); (err == nil) != (multiset[v] > 0) {
				return false
			} else if err == nil {
				multiset[v]--
			}
			var want *int64
			for mv, n := range multiset {
				if n > 0 && (want == nil || mv < *want) {
					want = &mv
				}
			}
			if got, ok := s.Result(); ok != (want != nil) || ok && got.Int() != *want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// walk appends tree t's nodes in order, checking each parent's priority
// is above its children's, and returns the tree's depth.
func (e *extremum) walk(t *testing.T, i int32, out *[]node) int {
	if i == 0 {
		return 0
	}
	n := e.at(i)
	for _, c := range []int32{n.l, n.r} {
		if c != 0 && prio(c) > prio(i) {
			t.Fatalf("node %d's priority is below its child %d's", i, c)
		}
	}
	dl := e.walk(t, n.l, out)
	*out = append(*out, *n)
	return 1 + max(dl, e.walk(t, n.r, out))
}

// A group's tree holds its distinct values in order with their counts,
// whatever the order they came and went in: random adds and removes over
// 64 values, MIN and MAX, the values first appended and then, from the
// first read, inserted into the tree, are checked against a count map
// after every step (a removal of copies the group lacks must fail and
// leave it as it was).
func TestExtremumTreeAgainstCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fn := range []datalog.AggFunc{datalog.AggMin, datalog.AggMax} {
		s := mustNew(t, fn)
		e := s.(*extremum)
		counts := map[int64]int64{}
		for step := range 4000 {
			v, mult := int64(rng.Intn(64)), int64(1+rng.Intn(3))
			if rng.Intn(2) == 0 || step < 100 {
				if err := s.Add(value.NewInt(v), mult); err != nil {
					t.Fatal(err)
				}
				counts[v] += mult
			} else if err := s.Remove(value.NewInt(v), mult); (err == nil) != (counts[v] >= mult) {
				t.Fatalf("%s, step %d: removing %d of %d (%d held): err=%v", fn, step, mult, v, counts[v], err)
			} else if err == nil {
				counts[v] -= mult
			}
			if step < 100 {
				continue // appended, not yet read
			}
			var want []node
			for v, n := range counts {
				if n > 0 {
					want = append(want, node{v: value.NewInt(v), n: n})
				}
			}
			slices.SortFunc(want, func(a, b node) int { return e.order(a.v, b.v) })
			if got, ok := s.Result(); ok != (len(want) > 0) || ok && got != want[len(want)-1].v {
				t.Fatalf("%s, step %d: result %v (%v), want the last of %v", fn, step, got, ok, want)
			}
			var got []node
			e.walk(t, e.root, &got)
			if !slices.EqualFunc(got, want, func(a, b node) bool { return a.v == b.v && a.n == b.n }) {
				t.Fatalf("%s, step %d: the tree holds %v, want %v", fn, step, got, want)
			}
		}
	}
}

// The tree's depth is O(log k) whatever order the values come in: k
// values inserted ascending or descending into a read group, as a MIN
// over increasing timestamps inserts them, leave it within 4·log₂ k
// (measured 29 at k = 4 096).
func TestExtremumTreeStaysShallow(t *testing.T) {
	const k, bound = 1 << 12, 4 * 12
	for _, fn := range []datalog.AggFunc{datalog.AggMin, datalog.AggMax} {
		for _, step := range []int64{1, -1} {
			s := mustNew(t, fn)
			s.Result() // read: from here on Add inserts into the tree
			for i := range int64(k) {
				if err := s.Add(value.NewInt(i*step), 1); err != nil {
					t.Fatal(err)
				}
			}
			e := s.(*extremum)
			var nodes []node
			d := e.walk(t, e.root, &nodes)
			t.Logf("%s, step %d: depth %d over %d values", fn, step, d, len(nodes))
			if d > bound || len(nodes) != k {
				t.Errorf("%s, step %d: depth %d over %d values, want at most %d over %d", fn, step, d, len(nodes), bound, k)
			}
		}
	}
}
