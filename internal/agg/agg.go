// Package agg implements the aggregate functions of the paper's GROUPBY
// subgoals (Section 6.2) with the incremental group state needed by
// Algorithm 6.1: MIN, MAX, SUM and COUNT are incrementally computable in
// the sense of [DAJ91]; AVG and VARIANCE are decomposed into incrementally
// computable parts (count, sum, sum of squares).
//
// A State accumulates one group's values (with multiplicities, so it works
// under both set and duplicate semantics), and both Add and Remove are
// exact for every function, so a group is never recomputed from its rows.
// SUM, COUNT, AVG and VARIANCE keep a few numbers (a Scalar); MIN and MAX
// keep the group's values in a search tree, so that when the extremum
// leaves, the next one is the tree's new last value.
package agg

import (
	"fmt"
	"math"
	"slices"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

// State is the running aggregate of one group.
type State interface {
	// Add folds mult copies of v into the group. mult must be positive.
	Add(v value.Value, mult int64) error
	// Remove takes mult copies of v out of the group. mult must be
	// positive. It fails where it sees that the group does not hold them:
	// when the group holds fewer than mult members, and for MIN and MAX
	// also when it holds fewer than mult copies of v.
	Remove(v value.Value, mult int64) error
	// Result returns the aggregate value; ok is false for an empty group
	// (an empty group contributes no tuple to the GROUPBY relation).
	Result() (v value.Value, ok bool)
}

// Scalar is a State of a few numbers, every function's but MIN's and
// MAX's, and so cheap to copy: Set makes the receiver a copy of src, a
// Scalar of the same function.
type Scalar interface {
	State
	Set(src State)
}

// New returns a fresh State for the named function.
func New(f datalog.AggFunc) (State, error) {
	switch f {
	case datalog.AggMin, datalog.AggMax:
		return &extremum{fn: f}, nil
	case datalog.AggSum:
		return &sum{}, nil
	case datalog.AggCount:
		return &counter{}, nil
	case datalog.AggAvg, datalog.AggVariance:
		return &moments{fn: f}, nil
	default:
		return nil, fmt.Errorf("agg: unknown aggregate function %q", f)
	}
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
	return 0, fmt.Errorf("agg: %s over non-numeric or non-finite value %s", fn, v)
}

// extremum implements MIN and MAX over any totally ordered values as an
// ordered multiset: a treap (a search tree by value.Compare that node
// priorities keep balanced) of the group's distinct values with their
// counts, so a value enters or leaves a group of k in O(log k) steps
// wherever it falls, and when the extremum leaves, the next is the new
// last node. value.Compare is 0 exactly when == holds: -0.0 is below 0.0,
// NaN below all, 1 apart from 1.0. The nodes live in one slice and link by
// index. Until the state is first read, Add only appends: a group built
// from its rows is sorted once, not inserted into row by row.
type extremum struct {
	fn         datalog.AggFunc
	sorted     bool
	root, free int32 // node indexes + 1 (at), 0 for none
	nodes      []node
}

// node is one distinct value and its count; l and r are its subtrees (0
// for none), and a free node's l is the next free one.
type node struct {
	v    value.Value
	n    int64
	l, r int32
}

func (e *extremum) at(i int32) *node { return &e.nodes[i-1] }

// prio is node i's priority, a hash of i. A parent's is above its
// children's, so the tree's shape does not follow the values' order.
func prio(i int32) uint32 {
	x := uint32(i) * 0x85ebca6b
	return (x ^ x>>13) * 0xc2b2ae35
}

// order is the tree's order: a MIN's descending, a MAX's ascending, so
// that the extremum is last.
func (e *extremum) order(a, b value.Value) int {
	if e.fn == datalog.AggMin {
		return b.Compare(a)
	}
	return a.Compare(b)
}

// sort makes the tree of the values appended since the state was made,
// the first time it is read: it sorts them, merges the copies of a value
// and merges each node in after the ones before it.
func (e *extremum) sort() {
	if e.sorted {
		return
	}
	slices.SortFunc(e.nodes, func(a, b node) int { return e.order(a.v, b.v) })
	k := int32(0)
	for _, n := range e.nodes {
		if k > 0 && e.nodes[k-1].v == n.v {
			e.nodes[k-1].n += n.n
		} else {
			e.nodes[k], k = n, k+1
			e.root = e.merge(e.root, k)
		}
	}
	clear(e.nodes[k:])
	e.nodes, e.sorted = e.nodes[:k], true
}

// cut splits the tree into its values before v, v's node (0 if the group
// does not hold v) and its values after v; Add and Remove merge the three
// back.
func (e *extremum) cut(v value.Value) (l, m, r int32) {
	e.sort()
	l, r = e.split(e.root, v, 0)
	m, r = e.split(r, v, 1)
	return l, m, r
}

// split splits tree t into the values whose order against v is below
// upto (those before v for 0, up to v for 1) and the others.
func (e *extremum) split(t int32, v value.Value, upto int) (l, r int32) {
	if t == 0 {
		return 0, 0
	}
	n := e.at(t)
	if e.order(n.v, v) < upto {
		n.r, r = e.split(n.r, v, upto)
		return t, r
	}
	l, n.l = e.split(n.l, v, upto)
	return l, t
}

// merge joins trees a and b, every value of a before every value of b.
func (e *extremum) merge(a, b int32) int32 {
	if a == 0 || b == 0 {
		return a | b
	}
	if n := e.at(a); prio(a) > prio(b) {
		n.r = e.merge(n.r, b)
		return a
	}
	n := e.at(b)
	n.l = e.merge(a, n.l)
	return b
}

func (e *extremum) Add(v value.Value, mult int64) error {
	if !e.sorted {
		e.nodes = append(e.nodes, node{v: v, n: mult})
		return nil
	}
	l, m, r := e.cut(v)
	if m != 0 {
		e.at(m).n += mult
	} else if m = e.free; m != 0 {
		e.free, *e.at(m) = e.at(m).l, node{v: v, n: mult}
	} else {
		e.nodes = append(e.nodes, node{v: v, n: mult})
		m = int32(len(e.nodes))
	}
	e.root = e.merge(e.merge(l, m), r)
	return nil
}

// Remove leaves the group as it was when it fails.
func (e *extremum) Remove(v value.Value, mult int64) (err error) {
	l, m, r := e.cut(v)
	switch {
	case m == 0 || e.at(m).n < mult:
		err = fmt.Errorf("agg: %s group underflow", e.fn)
	case e.at(m).n == mult: // v leaves the group: free its node
		*e.at(m), e.free, m = node{l: e.free}, m, 0
	default:
		e.at(m).n -= mult
	}
	e.root = e.merge(e.merge(l, m), r)
	return err
}

func (e *extremum) Result() (value.Value, bool) {
	if e.sort(); e.root == 0 {
		return value.Value{}, false
	}
	t := e.root
	for e.at(t).r != 0 {
		t = e.at(t).r
	}
	return e.at(t).v, true
}

// Reserve makes room in st for n more values where st holds its values
// (MIN and MAX), and does nothing otherwise: a group built from its rows
// is made once at its size.
func Reserve(st State, n int) {
	if e, ok := st.(*extremum); ok {
		e.nodes = slices.Grow(e.nodes, n)
	}
}

// sum implements SUM. Int members add exactly in int64 and Float members
// in float64; the result is a Float while the group holds a Float member
// and an Int otherwise, as a rebuild of the group would find it.
type sum struct {
	n, floats int64 // members, and how many of them are Floats
	i         int64
	f         float64
}

func (s *sum) Add(v value.Value, mult int64) error { return s.fold(v, mult) }

func (s *sum) Remove(v value.Value, mult int64) error { return s.fold(v, -mult) }

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

func (c *counter) Remove(_ value.Value, mult int64) error {
	c.n -= mult
	if c.n < 0 {
		return fmt.Errorf("agg: count group underflow")
	}
	return nil
}

func (c *counter) Result() (value.Value, bool) {
	if c.n == 0 {
		return value.Value{}, false
	}
	return value.NewInt(c.n), true
}

func (c *counter) Set(src State) { *c = *src.(*counter) }

// moments implements AVERAGE and the population variance, decomposed into
// count, sum and sum of squares: Var = E[X²] − E[X]².
type moments struct {
	fn         datalog.AggFunc
	n          int64
	sum, sumSq float64
}

func (s *moments) Add(v value.Value, mult int64) error { return s.fold(v, mult) }

func (s *moments) Remove(v value.Value, mult int64) error { return s.fold(v, -mult) }

func (s *moments) fold(v value.Value, mult int64) error {
	f, err := operand(string(s.fn), v)
	if err != nil {
		return err
	}
	if s.n += mult; s.n < 0 {
		return fmt.Errorf("agg: %s group underflow", s.fn)
	}
	s.sum += f * float64(mult)
	s.sumSq += f * f * float64(mult)
	return nil
}

func (s *moments) Result() (value.Value, bool) {
	if s.n == 0 {
		return value.Value{}, false
	}
	mean := s.sum / float64(s.n)
	if s.fn == datalog.AggAvg {
		return value.NewFloat(mean), true
	}
	v := s.sumSq/float64(s.n) - mean*mean
	// Guard tiny negative results from floating-point cancellation.
	if v < 0 && v > -1e-9 {
		v = 0
	}
	return value.NewFloat(math.Max(v, 0)), true
}

func (s *moments) Set(src State) { *s = *src.(*moments) }
