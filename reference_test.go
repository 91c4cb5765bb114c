package ivm_test

// The reference interpreter: the view language evaluated from the paper's
// definitions and nothing else, the model the engine is held to (TestOracle,
// TestEvaluateMatchesNaiveOracle). It shares the parser, the datalog AST
// with its Validate, and value.Compare with the engine, and no relation,
// evaluator, aggregate, stratification or planner code
// (TestReferenceSharesNoEngineCode). It is slow and plain on purpose:
//
//   - predicates are ordered by its own dependency SCCs, a negated or
//     aggregate dependency inside one is refused, and an SCC's stratum is
//     one above the highest it reads (Definition 3.1);
//   - each SCC runs a naive fixpoint over plain maps keyed by the tuples'
//     key bytes;
//   - a nonrecursive predicate's count is Section 3's: the sum over its
//     derivations of the product of the body counts, each 1 under set
//     semantics, where every relation is read as a set (Section 5.1); a
//     stratum holding a recursive predicate is kept as sets, as DRed keeps
//     it (Section 7), and duplicate semantics refuses recursion;
//   - an aggregate is recomputed from its group's whole multiset: SUM, AVG
//     and VARIANCE exactly in math/big.Rat, MIN and MAX by value.Compare;
//   - conditions and arithmetic are its own switches, and what the engines
//     refuse — a non-numeric or non-finite operand, a division by zero, a
//     relation read at another arity than its rows' — it refuses too.

import (
	"fmt"
	"math"
	"math/big"
	"slices"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

// refRow is a tuple and its count.
type refRow struct {
	t value.Tuple
	n int64
}

// refRel is a relation: its rows by the tuples' key bytes.
type refRel map[string]refRow

func (r refRel) add(t value.Tuple, n int64) {
	k := t.Key()
	row := r[k]
	r[k] = refRow{t, row.n + n}
}

// sorted is r's rows in Compare's lexicographic order.
func (r refRel) sorted() []refRow {
	rows := make([]refRow, 0, len(r))
	for _, row := range r {
		rows = append(rows, row)
	}
	slices.SortFunc(rows, func(a, b refRow) int {
		for i := 0; i < len(a.t) && i < len(b.t); i++ {
			if c := a.t[i].Compare(b.t[i]); c != 0 {
				return c
			}
		}
		return len(a.t) - len(b.t)
	})
	return rows
}

// refModel is a program evaluated over a base.
type refModel struct {
	rels      map[string]refRel // every predicate, base and derived
	level     map[string]int    // a derived predicate's stratum, from 1
	recursive map[string]bool
}

// reference evaluates prog over base, which it does not change, under
// duplicate semantics when dup is set and set semantics otherwise.
func reference(prog *datalog.Program, base map[string]refRel, dup bool) (*refModel, error) {
	if err := datalog.Validate(prog); err != nil {
		return nil, err
	}
	sccs, recursive, err := refSCCs(prog)
	if err != nil {
		return nil, err
	}
	if dup && len(recursive) > 0 {
		return nil, fmt.Errorf("reference: the program is recursive, and duplicate counts of a recursive view may be infinite")
	}
	m := &refModel{rels: make(map[string]refRel), level: make(map[string]int), recursive: recursive}
	for pred, rel := range base {
		m.rels[pred] = rel
	}
	for _, rule := range prog.Rules {
		if err := m.fits(rule); err != nil {
			return nil, err
		}
	}
	sets := make(map[int]bool) // the strata kept as sets
	for _, scc := range sccs {
		level := 1
		for _, rule := range prog.Rules {
			if slices.Contains(scc, rule.Head.Pred) {
				for _, l := range rule.Body {
					if n, ok := m.level[l.Pred()]; ok && !slices.Contains(scc, l.Pred()) {
						level = max(level, n+1)
					}
				}
			}
		}
		for _, pred := range scc {
			m.level[pred] = level
		}
		sets[level] = sets[level] || recursive[scc[0]]
	}
	for _, scc := range sccs {
		for _, pred := range scc {
			m.rels[pred] = make(refRel)
		}
		var rules []datalog.Rule
		for _, rule := range prog.Rules {
			if slices.Contains(scc, rule.Head.Pred) {
				rules = append(rules, rule)
			}
		}
		if !recursive[scc[0]] {
			out := m.rels[scc[0]]
			for _, rule := range rules {
				if err := m.derive(rule, dup, func(t value.Tuple, n int64) { out.add(t, n) }); err != nil {
					return nil, err
				}
			}
			if sets[m.level[scc[0]]] {
				for k, row := range out {
					out[k] = refRow{row.t, 1}
				}
			}
			continue
		}
		for grew := true; grew; {
			grew = false
			for _, rule := range rules {
				var heads []value.Tuple
				if err := m.derive(rule, false, func(t value.Tuple, _ int64) { heads = append(heads, t) }); err != nil {
					return nil, err
				}
				out := m.rels[rule.Head.Pred]
				for _, t := range heads {
					if _, ok := out[t.Key()]; !ok {
						out.add(t, 1)
						grew = true
					}
				}
			}
		}
	}
	return m, nil
}

// refSCCs returns prog's derived predicates as strongly connected
// components of its dependency graph, each after those it reads (Tarjan's
// algorithm), and which predicates are recursive: in a component of two
// or more, or reading themselves.
func refSCCs(prog *datalog.Program) ([][]string, map[string]bool, error) {
	derived := prog.DerivedPreds()
	type edge struct {
		to       string
		monotone bool
	}
	reads := make(map[string][]edge)
	for _, rule := range prog.Rules {
		for _, l := range rule.Body {
			if pred := l.Pred(); derived[pred] {
				reads[rule.Head.Pred] = append(reads[rule.Head.Pred], edge{pred, l.Kind == datalog.LitPositive})
			}
		}
	}
	var sccs [][]string
	comp := make(map[string]int)
	index, low := make(map[string]int), make(map[string]int)
	var stack []string
	onStack := make(map[string]bool)
	var visit func(p string)
	visit = func(p string) {
		index[p], low[p] = len(index), len(index)
		stack, onStack[p] = append(stack, p), true
		for _, e := range reads[p] {
			if _, seen := index[e.to]; !seen {
				visit(e.to)
				low[p] = min(low[p], low[e.to])
			} else if onStack[e.to] {
				low[p] = min(low[p], index[e.to])
			}
		}
		if low[p] != index[p] {
			return
		}
		var scc []string
		for {
			q := stack[len(stack)-1]
			stack, onStack[q] = stack[:len(stack)-1], false
			scc, comp[q] = append(scc, q), len(sccs)
			if q == p {
				break
			}
		}
		slices.Sort(scc)
		sccs = append(sccs, scc)
	}
	preds := make([]string, 0, len(derived))
	for pred := range derived {
		preds = append(preds, pred)
	}
	slices.Sort(preds)
	for _, p := range preds {
		if _, seen := index[p]; !seen {
			visit(p)
		}
	}
	recursive := make(map[string]bool)
	for p, es := range reads {
		for _, e := range es {
			if comp[e.to] != comp[p] {
				continue
			}
			if !e.monotone {
				return nil, nil, fmt.Errorf("reference: not stratified: %s reads %s by negation or aggregation in their recursion", p, e.to)
			}
			recursive[p], recursive[e.to] = true, true
		}
	}
	return sccs, recursive, nil
}

// fits refuses a rule reading a relation whose rows have another arity.
func (m *refModel) fits(rule datalog.Rule) error {
	atoms := []datalog.Atom{rule.Head}
	for _, l := range rule.Body {
		switch l.Kind {
		case datalog.LitPositive, datalog.LitNegated:
			atoms = append(atoms, l.Atom)
		case datalog.LitAggregate:
			atoms = append(atoms, l.Agg.Inner)
		}
	}
	for _, a := range atoms {
		for _, row := range m.rels[a.Pred] {
			if len(row.t) != len(a.Args) {
				return fmt.Errorf("reference: %s is read with arity %d and holds rows of arity %d", a.Pred, len(a.Args), len(row.t))
			}
		}
	}
	return nil
}

// derive calls emit with the head of each derivation of rule and its
// count: the product of the counts of the rows it joins, under duplicate
// semantics, else 1. Its positive and aggregate literals join in body
// order, then its negations and conditions filter, in body order.
func (m *refModel) derive(rule datalog.Rule, dup bool, emit func(value.Tuple, int64)) error {
	type join struct {
		args []datalog.Term
		rel  refRel
	}
	var joins []join
	for _, l := range rule.Body {
		switch l.Kind {
		case datalog.LitPositive:
			joins = append(joins, join{l.Atom.Args, m.rels[l.Atom.Pred]})
		case datalog.LitAggregate:
			t, err := m.groupBy(l.Agg, dup)
			if err != nil {
				return err
			}
			args := make([]datalog.Term, 0, len(l.Agg.GroupBy)+1)
			for _, v := range l.Agg.GroupBy {
				args = append(args, v)
			}
			joins = append(joins, join{append(args, l.Agg.Result), t})
		}
	}
	env := make(map[string]value.Value)
	var walk func(i int, n int64) error
	walk = func(i int, n int64) error {
		if i < len(joins) {
			for _, row := range joins[i].rel {
				bound, ok := refBind(env, joins[i].args, row.t)
				c := int64(1)
				if dup {
					c = row.n
				}
				var err error
				if ok {
					err = walk(i+1, n*c)
				}
				for _, v := range bound {
					delete(env, v)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		for _, l := range rule.Body {
			switch l.Kind {
			case datalog.LitNegated:
				t, err := refGround(l.Atom.Args, env)
				if err != nil {
					return err
				}
				if m.rels[l.Atom.Pred][t.Key()].n > 0 {
					return nil
				}
			case datalog.LitCondition:
				holds, err := refCondition(l.Cond, env)
				if err != nil || !holds {
					return err
				}
			}
		}
		head, err := refGround(rule.Head.Args, env)
		if err == nil {
			emit(head, n)
		}
		return err
	}
	return walk(0, 1)
}

// refBind matches t against args under env: a constant or a bound variable
// must be t's value exactly (key identity, Compare 0), a free one is bound.
// It returns the variables it bound, which the caller unbinds.
func refBind(env map[string]value.Value, args []datalog.Term, t value.Tuple) (bound []string, ok bool) {
	for i, a := range args {
		switch a := a.(type) {
		case datalog.Const:
			if a.Value.Compare(t[i]) != 0 {
				return bound, false
			}
		case datalog.Var:
			if v, has := env[string(a)]; !has {
				env[string(a)] = t[i]
				bound = append(bound, string(a))
			} else if v.Compare(t[i]) != 0 {
				return bound, false
			}
		}
	}
	return bound, true
}

// refGround is the tuple args denote under env.
func refGround(args []datalog.Term, env map[string]value.Value) (value.Tuple, error) {
	t := make(value.Tuple, len(args))
	for i, a := range args {
		v, err := refTerm(a, env)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

// refTerm is the value term denotes under env.
func refTerm(term datalog.Term, env map[string]value.Value) (value.Value, error) {
	switch term := term.(type) {
	case datalog.Var:
		return env[string(term)], nil
	case datalog.Const:
		return term.Value, nil
	case datalog.Arith:
		a, err := refTerm(term.Left, env)
		if err != nil {
			return value.Value{}, err
		}
		b, err := refTerm(term.Right, env)
		if err != nil {
			return value.Value{}, err
		}
		return refArith(term.Op, a, b)
	}
	return value.Value{}, fmt.Errorf("reference: unknown term %v", term)
}

// refArith applies op: an Int with an Int stays an Int (wrapping, dividing
// towards zero), any Float makes a Float, and a string or a zero divisor
// is refused.
func refArith(op datalog.ArithOp, a, b value.Value) (value.Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return value.Value{}, fmt.Errorf("reference: %v %v %v: non-numeric operand", a, op, b)
	}
	if a.Kind() == value.Int && b.Kind() == value.Int {
		x, y := a.Int(), b.Int()
		switch op {
		case datalog.OpAdd:
			return value.NewInt(x + y), nil
		case datalog.OpSub:
			return value.NewInt(x - y), nil
		case datalog.OpMul:
			return value.NewInt(x * y), nil
		case datalog.OpDiv:
			if y == 0 {
				return value.Value{}, fmt.Errorf("reference: %v / 0", x)
			}
			return value.NewInt(x / y), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case datalog.OpAdd:
		return value.NewFloat(x + y), nil
	case datalog.OpSub:
		return value.NewFloat(x - y), nil
	case datalog.OpMul:
		return value.NewFloat(x * y), nil
	case datalog.OpDiv:
		if y == 0 {
			return value.Value{}, fmt.Errorf("reference: %v / %v", x, y)
		}
		return value.NewFloat(x / y), nil
	}
	return value.Value{}, fmt.Errorf("reference: unknown operator %v", op)
}

// refCondition evaluates c under env. Conditions order values as Compare
// does, except that an Int and a Float of the same number are equal
// (1 = 1.0, 0 = -0.0).
func refCondition(c *datalog.Condition, env map[string]value.Value) (bool, error) {
	a, err := refTerm(c.Left, env)
	if err != nil {
		return false, err
	}
	b, err := refTerm(c.Right, env)
	if err != nil {
		return false, err
	}
	cmp := a.Compare(b)
	if a.Kind() != b.Kind() && a.IsNumeric() && b.IsNumeric() {
		i, f := a, b
		if i.Kind() == value.Float {
			i, f = b, a
		}
		if x := f.Float(); x == math.Trunc(x) && x >= -(1<<63) && x < 1<<63 && int64(x) == i.Int() {
			cmp = 0
		}
	}
	switch c.Op {
	case datalog.CmpEq:
		return cmp == 0, nil
	case datalog.CmpNe:
		return cmp != 0, nil
	case datalog.CmpLt:
		return cmp < 0, nil
	case datalog.CmpLe:
		return cmp <= 0, nil
	case datalog.CmpGt:
		return cmp > 0, nil
	case datalog.CmpGe:
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("reference: unknown comparison %v", c.Op)
}

// groupBy is the relation g denotes: per group of the rows of g's inner
// relation that match its atom, the grouping values and the aggregate of
// the group's whole multiset of values, each tuple once.
func (m *refModel) groupBy(g *datalog.Aggregate, dup bool) (refRel, error) {
	type group struct {
		key  value.Tuple
		vals []value.Value
		mult []int64
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range m.rels[g.Inner.Pred] {
		env := make(map[string]value.Value)
		if _, ok := refBind(env, g.Inner.Args, row.t); !ok {
			continue
		}
		key := make(value.Tuple, len(g.GroupBy))
		for i, v := range g.GroupBy {
			key[i] = env[string(v)]
		}
		v, err := refTerm(g.Arg, env)
		if err != nil {
			return nil, err
		}
		n := int64(1)
		if dup {
			n = row.n
		}
		gr := groups[key.Key()]
		if gr == nil {
			gr = &group{key: key}
			groups[key.Key()] = gr
			order = append(order, key.Key())
		}
		gr.vals, gr.mult = append(gr.vals, v), append(gr.mult, n)
	}
	out := make(refRel)
	for _, k := range order {
		gr := groups[k]
		v, err := refAggregate(g.Func, gr.vals, gr.mult)
		if err != nil {
			return nil, err
		}
		out.add(append(slices.Clip(gr.key), v), 1)
	}
	return out, nil
}

// refAggregate is f over the multiset holding mult[i] copies of vals[i].
// COUNT counts copies; MIN and MAX take the least or greatest value by
// Compare; SUM, AVG and VARIANCE add exactly, refuse a string, NaN or ±Inf,
// and SUM is a Float if any member is one, an Int otherwise.
func refAggregate(f datalog.AggFunc, vals []value.Value, mult []int64) (value.Value, error) {
	switch f {
	case datalog.AggCount:
		var n int64
		for _, k := range mult {
			n += k
		}
		return value.NewInt(n), nil
	case datalog.AggMin, datalog.AggMax:
		best := vals[0]
		for _, v := range vals[1:] {
			if c := v.Compare(best); f == datalog.AggMin && c < 0 || f == datalog.AggMax && c > 0 {
				best = v
			}
		}
		return best, nil
	}
	sum, sumSq, n, floats := new(big.Rat), new(big.Rat), new(big.Rat), false
	for i, v := range vals {
		x := new(big.Rat)
		switch {
		case v.Kind() == value.Int:
			x.SetInt64(v.Int())
		case v.Kind() == value.Float && x.SetFloat64(v.Float()) != nil:
			floats = true
		default:
			return value.Value{}, fmt.Errorf("reference: %s over %v", f, v)
		}
		k := new(big.Rat).SetInt64(mult[i])
		sum.Add(sum, new(big.Rat).Mul(x, k))
		sumSq.Add(sumSq, new(big.Rat).Mul(new(big.Rat).Mul(x, x), k))
		n.Add(n, k)
	}
	switch f {
	case datalog.AggSum:
		if !floats {
			return value.NewInt(sum.Num().Int64()), nil
		}
		x, _ := sum.Float64()
		return value.NewFloat(x), nil
	case datalog.AggAvg:
		x, _ := new(big.Rat).Quo(sum, n).Float64()
		return value.NewFloat(x), nil
	case datalog.AggVariance:
		mean := new(big.Rat).Quo(sum, n)
		x, _ := new(big.Rat).Sub(new(big.Rat).Quo(sumSq, n), new(big.Rat).Mul(mean, mean)).Float64()
		return value.NewFloat(x), nil
	}
	return value.Value{}, fmt.Errorf("reference: unknown aggregate %q", f)
}
