package eval

import (
	"fmt"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

// A plan is compiled into a slot program. PlanRule numbers a rule's
// variables in the order its steps bind them: the first join step whose
// pattern mentions a variable binds its slot, every later mention reads
// it. A walk keeps the current derivation's bindings in one
// []value.Value indexed by slot and needs no undo: a slot bound at step k
// is read only by the steps after k, and the next row step k tries
// overwrites it.

// slotOf maps each variable bound so far to its slot.
type slotOf map[string]int

// term is a compiled datalog.Term: a constant, a slot, or arithmetic over
// two terms.
type term struct {
	slot  int // the slot read, or -1 for val (arith unset) or arith
	val   value.Value
	arith *arithTerm
}

type arithTerm struct {
	op   datalog.ArithOp
	l, r term
}

// compileTerm compiles t over the variables slots binds; a variable
// nothing binds is an error.
func compileTerm(t datalog.Term, slots slotOf) (term, error) {
	switch x := t.(type) {
	case datalog.Const:
		return term{slot: -1, val: x.Value}, nil
	case datalog.Var:
		if s, ok := slots[string(x)]; ok {
			return term{slot: s}, nil
		}
		return term{}, fmt.Errorf("eval: unbound variable %s", x)
	case datalog.Arith:
		l, err := compileTerm(x.Left, slots)
		if err != nil {
			return term{}, err
		}
		r, err := compileTerm(x.Right, slots)
		if err != nil {
			return term{}, err
		}
		return term{slot: -1, arith: &arithTerm{op: x.Op, l: l, r: r}}, nil
	}
	return term{}, fmt.Errorf("eval: unknown term type %T", t)
}

func compileTerms(args []datalog.Term, slots slotOf) ([]term, error) {
	out := make([]term, len(args))
	for i, a := range args {
		t, err := compileTerm(a, slots)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// eval evaluates t over a walk's slots.
func (t *term) eval(slots []value.Value) (value.Value, error) {
	if t.arith == nil {
		if t.slot >= 0 {
			return slots[t.slot], nil
		}
		return t.val, nil
	}
	l, err := t.arith.l.eval(slots)
	if err != nil {
		return value.Value{}, err
	}
	r, err := t.arith.r.eval(slots)
	if err != nil {
		return value.Value{}, err
	}
	switch t.arith.op {
	case datalog.OpAdd:
		return value.Add(l, r)
	case datalog.OpSub:
		return value.Sub(l, r)
	case datalog.OpMul:
		return value.Mul(l, r)
	case datalog.OpDiv:
		return value.Div(l, r)
	}
	return value.Value{}, fmt.Errorf("eval: unknown arithmetic operator %v", t.arith.op)
}

// ground evaluates terms over slots into a tuple built in dst's storage
// (dst[:0] is overwritten; nil allocates a tuple the caller owns).
func ground(dst value.Tuple, terms []term, slots []value.Value) (value.Tuple, error) {
	dst = dst[:0]
	for i := range terms {
		v, err := terms[i].eval(slots)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// colOp is what a join step does with one column of a candidate row.
type colOp struct {
	kind colKind
	slot int
	val  value.Value
}

type colKind uint8

const (
	colConst colKind = iota // the column must hold val
	colCheck                // the column must hold the value in slot
	colBind                 // the column's value goes into slot
)

// compilePattern compiles a join pattern, one op per column, binding a new
// slot at each variable's first occurrence: a variable repeated within the
// pattern (c(X,X)) is bound by its first column and checked by the others.
func compilePattern(args []datalog.Term, slots slotOf) ([]colOp, error) {
	ops := make([]colOp, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case datalog.Const:
			ops[i] = colOp{kind: colConst, val: x.Value}
		case datalog.Var:
			if s, ok := slots[string(x)]; ok {
				ops[i] = colOp{kind: colCheck, slot: s}
			} else {
				ops[i] = colOp{kind: colBind, slot: len(slots)}
				slots[string(x)] = len(slots)
			}
		default:
			return nil, fmt.Errorf("eval: expression %s in join pattern", a)
		}
	}
	return ops, nil
}

// match runs ops over a candidate row, binding slots as it goes; on a
// mismatch it stops, leaving slots that only a successful match reads.
//
// Values match by key identity (== on value.Value), the equality every
// relation probe and index uses: a scan must join what a lookup would, so
// -0.0 does not match 0.0 and NaN matches itself, as their keys do.
func match(ops []colOp, t value.Tuple, slots []value.Value) bool {
	for i := range ops {
		switch op := &ops[i]; op.kind {
		case colBind:
			slots[op.slot] = t[i]
		case colCheck:
			if t[i] != slots[op.slot] {
				return false
			}
		default:
			if t[i] != op.val {
				return false
			}
		}
	}
	return true
}

// bound reads a matched join pattern back from the slots: a constant
// column's value, or the slot a variable column bound or checked.
func bound(ops []colOp, slots []value.Value) value.Tuple {
	t := make(value.Tuple, len(ops))
	for i, op := range ops {
		t[i] = op.val
		if op.kind != colConst {
			t[i] = slots[op.slot]
		}
	}
	return t
}
