package eval

import (
	"fmt"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

// binding is a mutable variable assignment with O(1) set/unset, used by
// the nested-loop join. Variables are identified by name.
type binding struct {
	vals map[string]value.Value
}

func newBinding() *binding { return &binding{vals: make(map[string]value.Value)} }

func (b *binding) lookup(v string) (value.Value, bool) {
	val, ok := b.vals[v]
	return val, ok
}

func (b *binding) set(v string, val value.Value) { b.vals[v] = val }
func (b *binding) unset(v string)                { delete(b.vals, v) }

// evalTerm evaluates a term under b. Unbound variables are an error
// (callers arrange evaluation order so this never fires for valid rules).
func evalTerm(t datalog.Term, b *binding) (value.Value, error) {
	switch x := t.(type) {
	case datalog.Const:
		return x.Value, nil
	case datalog.Var:
		val, ok := b.lookup(string(x))
		if !ok {
			return value.Value{}, fmt.Errorf("eval: unbound variable %s", x)
		}
		return val, nil
	case datalog.Arith:
		l, err := evalTerm(x.Left, b)
		if err != nil {
			return value.Value{}, err
		}
		r, err := evalTerm(x.Right, b)
		if err != nil {
			return value.Value{}, err
		}
		switch x.Op {
		case datalog.OpAdd:
			return value.Add(l, r)
		case datalog.OpSub:
			return value.Sub(l, r)
		case datalog.OpMul:
			return value.Mul(l, r)
		case datalog.OpDiv:
			return value.Div(l, r)
		}
		return value.Value{}, fmt.Errorf("eval: unknown arithmetic operator %v", x.Op)
	default:
		return value.Value{}, fmt.Errorf("eval: unknown term type %T", t)
	}
}

// groundAtom instantiates an atom's arguments under b into a tuple built
// in dst's storage (dst[:0] is overwritten; nil allocates a tuple the
// caller owns). Every argument must be a constant or a bound variable.
func groundAtom(dst value.Tuple, args []datalog.Term, b *binding) (value.Tuple, error) {
	t := dst[:0]
	if dst == nil {
		t = make(value.Tuple, 0, len(args))
	}
	for _, a := range args {
		v, err := evalTerm(a, b)
		if err != nil {
			return nil, err
		}
		t = append(t, v)
	}
	return t, nil
}

// matchPattern attempts to match tuple against args under b, extending b
// for previously unbound variables. It returns ok and the list of
// variables newly bound (for undo), built in buf's storage (buf[:0] is
// overwritten; nil allocates). Constants and bound variables must match
// exactly; repeated variables within args must agree. On a failed match
// the binding is restored and the list is empty.
//
// Values match by key identity (== on value.Value), the equality every
// relation probe and index uses: a scan must join what a lookup would, so
// -0.0 does not match 0.0 and NaN matches itself, as their keys do.
func matchPattern(args []datalog.Term, tuple value.Tuple, b *binding, buf []string) (ok bool, boundVars []string) {
	boundVars = buf[:0]
	for i, a := range args {
		switch x := a.(type) {
		case datalog.Const:
			if x.Value != tuple[i] {
				undoBind(b, boundVars)
				return false, boundVars[:0]
			}
		case datalog.Var:
			name := string(x)
			if cur, bound := b.lookup(name); bound {
				if cur != tuple[i] {
					undoBind(b, boundVars)
					return false, boundVars[:0]
				}
			} else {
				b.set(name, tuple[i])
				boundVars = append(boundVars, name)
			}
		default:
			// Expressions never appear in body atoms (validated).
			undoBind(b, boundVars)
			return false, boundVars[:0]
		}
	}
	return true, boundVars
}

func undoBind(b *binding, vars []string) {
	for _, v := range vars {
		b.unset(v)
	}
}
