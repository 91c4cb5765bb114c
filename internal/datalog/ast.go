// Package datalog defines the abstract syntax of the extended Datalog
// dialect used by the view-maintenance engine: positive and (safe,
// stratified) negated subgoals, GROUPBY aggregation subgoals in the style
// of [Mum91], arithmetic expressions in rule heads, and comparison
// conditions. It also provides the structural validation (safety / range
// restriction) required before a program may be evaluated.
package datalog

import (
	"fmt"
	"strings"

	"ivm/internal/value"
)

// Term is a head/body argument: a variable, a constant, or (in heads and
// conditions) an arithmetic expression.
type Term interface {
	isTerm()
	// Vars appends the variables occurring in the term to dst.
	Vars(dst []string) []string
	String() string
}

// Var is a Datalog variable (conventionally starting with an upper-case
// letter in the surface syntax).
type Var string

func (Var) isTerm()                      {}
func (v Var) Vars(dst []string) []string { return append(dst, string(v)) }
func (v Var) String() string             { return string(v) }

// Const is a constant term wrapping a scalar value.
type Const struct{ Value value.Value }

func (Const) isTerm()                      {}
func (c Const) Vars(dst []string) []string { return dst }
func (c Const) String() string             { return c.Value.String() }

// ArithOp enumerates arithmetic operators usable in expression terms.
type ArithOp uint8

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Arith is a binary arithmetic expression term, e.g. C1+C2 in
// hop(S,D,C1+C2) :- link(S,I,C1), link(I,D,C2).
type Arith struct {
	Op          ArithOp
	Left, Right Term
}

func (Arith) isTerm() {}

func (a Arith) Vars(dst []string) []string {
	dst = a.Left.Vars(dst)
	return a.Right.Vars(dst)
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.Left, a.Op, a.Right)
}

// Atom is a predicate applied to terms, e.g. link(X, Z).
type Atom struct {
	Pred string
	Args []Term
}

// Vars appends all variables in the atom's arguments to dst.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		dst = t.Vars(dst)
	}
	return dst
}

func (a Atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// CmpOp enumerates comparison operators in condition literals.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Eval applies the comparison under value.Compare, the order whose
// equality is the one joins and groups use: exact across kinds, so 2^53 <
// 2^53+1, and -0.0 < 0.0, a NaN equals itself and sorts below every
// number. The one exception is that an Int and a Float of the same exact
// value are equal (1 = 1.0): the order is value.CompareNumeric.
func (op CmpOp) Eval(a, b value.Value) bool {
	c := a.CompareNumeric(b)
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// AggFunc names an aggregation function of a GROUPBY subgoal.
type AggFunc string

// Supported aggregate functions. MIN/MAX/COUNT/SUM are incrementally
// computable in the sense of [DAJ91]; AVG and VARIANCE are decomposed into
// incrementally computable parts (sum, sum of squares, count).
const (
	AggMin      AggFunc = "min"
	AggMax      AggFunc = "max"
	AggSum      AggFunc = "sum"
	AggCount    AggFunc = "count"
	AggAvg      AggFunc = "avg"
	AggVariance AggFunc = "variance"
)

// Aggregate is a GROUPBY subgoal:
//
//	GROUPBY(u(X,Y,C), [X,Y], M = min(C))
//
// It denotes a relation over GroupBy ∪ {Result}: one tuple per distinct
// binding of the grouping variables, carrying the aggregate of Arg over
// the group ([Mum91] semantics, paper Section 6.2).
type Aggregate struct {
	Inner   Atom    // the grouped subgoal u(...)
	GroupBy []Var   // grouping variables (must occur in Inner)
	Result  Var     // variable bound to the aggregate value
	Func    AggFunc // aggregation function
	Arg     Term    // aggregated expression over Inner's variables
}

func (g Aggregate) String() string {
	vars := make([]string, len(g.GroupBy))
	for i, v := range g.GroupBy {
		vars[i] = string(v)
	}
	return fmt.Sprintf("groupby(%s, [%s], %s = %s(%s))",
		g.Inner, strings.Join(vars, ", "), g.Result, g.Func, g.Arg)
}

// LiteralKind discriminates the kinds of body literals.
type LiteralKind uint8

const (
	// LitPositive is an ordinary positive subgoal.
	LitPositive LiteralKind = iota
	// LitNegated is a safe stratified negated subgoal (¬q(...)).
	LitNegated
	// LitAggregate is a GROUPBY subgoal.
	LitAggregate
	// LitCondition is a comparison filter (X < Y, C != 0, ...).
	LitCondition
)

// Literal is one subgoal of a rule body. Exactly one of the payload
// fields is meaningful, selected by Kind.
type Literal struct {
	Kind LiteralKind
	Atom Atom       // LitPositive, LitNegated
	Agg  *Aggregate // LitAggregate
	Cond *Condition // LitCondition
}

// Condition is a comparison literal over expressions.
type Condition struct {
	Op          CmpOp
	Left, Right Term
}

func (c Condition) String() string {
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
}

// Pred returns the predicate this literal references, or "" for conditions.
func (l Literal) Pred() string {
	switch l.Kind {
	case LitPositive, LitNegated:
		return l.Atom.Pred
	case LitAggregate:
		return l.Agg.Inner.Pred
	}
	return ""
}

// IsRelational reports whether the literal references a relation (i.e. is
// not a pure condition filter).
func (l Literal) IsRelational() bool { return l.Kind != LitCondition }

// BindsVars appends the variables this literal can bind (make safe) to dst:
// positive subgoals bind all their variables; aggregates bind their
// grouping variables and result variable; negations and conditions bind
// nothing.
func (l Literal) BindsVars(dst []string) []string {
	switch l.Kind {
	case LitPositive:
		return l.Atom.Vars(dst)
	case LitAggregate:
		for _, v := range l.Agg.GroupBy {
			dst = append(dst, string(v))
		}
		return append(dst, string(l.Agg.Result))
	}
	return dst
}

// UsesVars appends every variable occurring anywhere in the literal to dst.
func (l Literal) UsesVars(dst []string) []string {
	switch l.Kind {
	case LitPositive, LitNegated:
		return l.Atom.Vars(dst)
	case LitAggregate:
		dst = l.Agg.Inner.Vars(dst)
		for _, v := range l.Agg.GroupBy {
			dst = append(dst, string(v))
		}
		return append(dst, string(l.Agg.Result))
	case LitCondition:
		dst = l.Cond.Left.Vars(dst)
		return l.Cond.Right.Vars(dst)
	}
	return dst
}

func (l Literal) String() string {
	switch l.Kind {
	case LitPositive:
		return l.Atom.String()
	case LitNegated:
		return "!" + l.Atom.String()
	case LitAggregate:
		return l.Agg.String()
	case LitCondition:
		return l.Cond.String()
	}
	return "?"
}

// Rule is a single Datalog rule: Head :- Body.
type Rule struct {
	Head Atom
	Body []Literal
}

func (r Rule) String() string {
	var sb strings.Builder
	sb.WriteString(r.Head.String())
	if len(r.Body) > 0 {
		sb.WriteString(" :- ")
		for i, l := range r.Body {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(l.String())
		}
	}
	sb.WriteByte('.')
	return sb.String()
}

// Program is an ordered collection of rules defining derived predicates.
type Program struct {
	Rules []Rule
}

// Clone returns a shallow copy with an independent rule slice (rules share
// term structures, which are immutable).
func (p *Program) Clone() *Program {
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	return &Program{Rules: rules}
}

// DerivedPreds returns the set of predicates appearing in some rule head.
func (p *Program) DerivedPreds() map[string]bool {
	out := make(map[string]bool)
	for _, r := range p.Rules {
		out[r.Head.Pred] = true
	}
	return out
}

// BasePreds returns the predicates referenced in rule bodies that are
// never defined by a rule head (the edb relations).
func (p *Program) BasePreds() map[string]bool {
	derived := p.DerivedPreds()
	out := make(map[string]bool)
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if pred := l.Pred(); pred != "" && !derived[pred] {
				out[pred] = true
			}
		}
	}
	return out
}

// RulesFor returns the indexes of rules whose head predicate is pred.
func (p *Program) RulesFor(pred string) []int {
	var out []int
	for i, r := range p.Rules {
		if r.Head.Pred == pred {
			out = append(out, i)
		}
	}
	return out
}

func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
