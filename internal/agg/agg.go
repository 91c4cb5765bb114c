// Package agg implements the aggregate functions of the paper's GROUPBY
// subgoals (Section 6.2) with the incremental group state needed by
// Algorithm 6.1: MIN, MAX, SUM and COUNT are incrementally computable in
// the sense of [DAJ91]; AVG and VARIANCE are decomposed into incrementally
// computable parts (count, sum, sum of squares).
//
// A State accumulates one group's values (with multiplicities, so it works
// under both set and duplicate semantics). Add is always O(1). Remove is
// O(1) whenever the function is incrementally computable downward; for
// MIN/MAX, removing the last copy of the current extremum is not — Remove
// then reports needRescan=true and the caller must rebuild the group from
// the underlying relation, exactly the fallback the paper prescribes for
// non-incrementally-computable cases.
package agg

import (
	"fmt"
	"math"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

// State is the running aggregate of one group.
type State interface {
	// Add folds mult copies of v into the group. mult must be positive.
	Add(v value.Value, mult int64) error
	// Remove removes mult copies of v. needRescan reports that the state
	// can no longer answer exactly and the group must be recomputed from
	// scratch. mult must be positive.
	Remove(v value.Value, mult int64) (needRescan bool, err error)
	// Result returns the aggregate value; ok is false for an empty group
	// (an empty group contributes no tuple to the GROUPBY relation).
	Result() (v value.Value, ok bool)
	// Set makes the receiver a copy of src, a State of the same function.
	Set(src State)
}

// New returns a fresh State for the named function.
func New(f datalog.AggFunc) (State, error) {
	switch f {
	case datalog.AggMin:
		return &extremum{min: true}, nil
	case datalog.AggMax:
		return &extremum{min: false}, nil
	case datalog.AggSum:
		return &sum{}, nil
	case datalog.AggCount:
		return &counter{}, nil
	case datalog.AggAvg:
		return &avg{}, nil
	case datalog.AggVariance:
		return &variance{}, nil
	default:
		return nil, fmt.Errorf("agg: unknown aggregate function %q", f)
	}
}

// Incremental reports whether f's Remove is always exact (never needs a
// group rescan). MIN and MAX are only incrementally computable upward.
func Incremental(f datalog.AggFunc) bool {
	return f != datalog.AggMin && f != datalog.AggMax
}

type operandError struct {
	fn string
	v  value.Value
}

func (e *operandError) Error() string {
	return fmt.Sprintf("agg: %s over non-numeric or non-finite value %s", e.fn, e.v)
}

// operand is v as SUM, AVG and VARIANCE add it, or the error for a string,
// a NaN or an ±Inf: once summed, no removal could take a NaN or an Inf back
// out (NaN − NaN and Inf − Inf are NaN). MIN and MAX only order values and
// take every value.
func operand(fn string, v value.Value) (float64, error) {
	if v.IsNumeric() {
		if f := v.Float(); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f, nil
		}
	}
	return 0, &operandError{fn, v}
}

// extremum implements MIN/MAX over any totally ordered values. It tracks
// the current extremum and how many copies of it the group holds, so
// removals of non-extremal values and of duplicated extrema stay O(1).
// value.Compare is 0 exactly when == holds, so every value is a copy of
// best or strictly on one side of it: -0.0 is below 0.0, NaN below all.
type extremum struct {
	min     bool
	n       int64 // total multiplicity in the group
	best    value.Value
	bestN   int64 // multiplicity of best
	invalid bool  // set after an inexact Remove until rebuilt
}

func (e *extremum) name() string {
	if e.min {
		return "min"
	}
	return "max"
}

func (e *extremum) better(a, b value.Value) bool {
	if e.min {
		return a.Compare(b) < 0
	}
	return a.Compare(b) > 0
}

func (e *extremum) Add(v value.Value, mult int64) error {
	if e.invalid {
		return fmt.Errorf("agg: %s state used after it required a rescan", e.name())
	}
	if e.n == 0 || e.better(v, e.best) {
		e.best = v
		e.bestN = mult
	} else if v == e.best {
		e.bestN += mult
	}
	e.n += mult
	return nil
}

func (e *extremum) Remove(v value.Value, mult int64) (bool, error) {
	if e.invalid {
		return true, nil
	}
	if e.n < mult {
		return false, fmt.Errorf("agg: %s group underflow", e.name())
	}
	if v == e.best {
		e.bestN -= mult
		if e.bestN <= 0 {
			e.n -= mult
			if e.n > 0 {
				// The extremum left the group and survivors exist: the new
				// extremum is unknown without a rescan.
				e.invalid = true
				return true, nil
			}
			return false, nil
		}
	} else if e.better(v, e.best) {
		return false, fmt.Errorf("agg: %s removal of %s beyond current extremum %s", e.name(), v, e.best)
	}
	e.n -= mult
	return false, nil
}

func (e *extremum) Result() (value.Value, bool) {
	if e.n == 0 || e.invalid {
		return value.Value{}, false
	}
	return e.best, true
}

func (e *extremum) Set(src State) { *e = *src.(*extremum) }

// sum implements SUM. Int members add exactly in int64 and Float members
// in float64; the result is a Float while the group holds a Float member
// and an Int otherwise, as a rebuild of the group would find it.
type sum struct {
	n, floats int64 // members, and how many of them are Floats
	i         int64
	f         float64
}

func (s *sum) Add(v value.Value, mult int64) error { return s.fold(v, mult) }

func (s *sum) Remove(v value.Value, mult int64) (bool, error) { return false, s.fold(v, -mult) }

func (s *sum) fold(v value.Value, mult int64) error {
	f, err := operand("sum", v)
	if err != nil {
		return err
	}
	if s.n += mult; s.n < 0 {
		return fmt.Errorf("agg: sum group underflow")
	}
	if v.Kind() == value.Int {
		s.i += v.Int() * mult
		return nil
	}
	if s.floats += mult; s.floats == 0 {
		s.f = 0 // no Float left: drop what rounding left behind
	} else {
		s.f += f * float64(mult)
	}
	return nil
}

func (s *sum) Result() (value.Value, bool) {
	if s.n == 0 {
		return value.Value{}, false
	}
	if s.floats > 0 {
		return value.NewFloat(s.f + float64(s.i)), true
	}
	return value.NewInt(s.i), true
}

func (s *sum) Set(src State) { *s = *src.(*sum) }

// counter implements COUNT (of group members, with multiplicity).
type counter struct {
	n int64
}

func (c *counter) Add(_ value.Value, mult int64) error {
	c.n += mult
	return nil
}

func (c *counter) Remove(_ value.Value, mult int64) (bool, error) {
	c.n -= mult
	if c.n < 0 {
		return false, fmt.Errorf("agg: count group underflow")
	}
	return false, nil
}

func (c *counter) Result() (value.Value, bool) {
	if c.n == 0 {
		return value.Value{}, false
	}
	return value.NewInt(c.n), true
}

func (c *counter) Set(src State) { *c = *src.(*counter) }

// avg implements AVERAGE, decomposed into sum and count.
type avg struct {
	n   int64
	sum float64
}

func (a *avg) Add(v value.Value, mult int64) error { return a.fold(v, mult) }

func (a *avg) Remove(v value.Value, mult int64) (bool, error) { return false, a.fold(v, -mult) }

func (a *avg) fold(v value.Value, mult int64) error {
	f, err := operand("avg", v)
	if err != nil {
		return err
	}
	if a.n += mult; a.n < 0 {
		return fmt.Errorf("agg: avg group underflow")
	}
	a.sum += f * float64(mult)
	return nil
}

func (a *avg) Result() (value.Value, bool) {
	if a.n == 0 {
		return value.Value{}, false
	}
	return value.NewFloat(a.sum / float64(a.n)), true
}

func (a *avg) Set(src State) { *a = *src.(*avg) }

// variance implements the population variance, decomposed into count, sum
// and sum of squares: Var = E[X²] − E[X]².
type variance struct {
	n     int64
	sum   float64
	sumSq float64
}

func (s *variance) Add(v value.Value, mult int64) error { return s.fold(v, mult) }

func (s *variance) Remove(v value.Value, mult int64) (bool, error) { return false, s.fold(v, -mult) }

func (s *variance) fold(v value.Value, mult int64) error {
	f, err := operand("variance", v)
	if err != nil {
		return err
	}
	if s.n += mult; s.n < 0 {
		return fmt.Errorf("agg: variance group underflow")
	}
	s.sum += f * float64(mult)
	s.sumSq += f * f * float64(mult)
	return nil
}

func (s *variance) Result() (value.Value, bool) {
	if s.n == 0 {
		return value.Value{}, false
	}
	mean := s.sum / float64(s.n)
	v := s.sumSq/float64(s.n) - mean*mean
	// Guard tiny negative results from floating-point cancellation.
	if v < 0 && v > -1e-9 {
		v = 0
	}
	return value.NewFloat(math.Max(v, 0)), true
}

func (s *variance) Set(src State) { *s = *src.(*variance) }
