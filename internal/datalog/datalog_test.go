package datalog

import (
	"math"
	"strings"
	"testing"

	"ivm/internal/value"
)

func v(name string) Var { return Var(name) }
func c(s string) Const  { return Const{Value: value.NewString(s)} }
func ci(i int64) Const  { return Const{Value: value.NewInt(i)} }
func atom(p string, args ...Term) Atom {
	return Atom{Pred: p, Args: args}
}
func pos(p string, args ...Term) Literal {
	return Literal{Kind: LitPositive, Atom: atom(p, args...)}
}
func neg(p string, args ...Term) Literal {
	return Literal{Kind: LitNegated, Atom: atom(p, args...)}
}

func TestTermVars(t *testing.T) {
	a := Arith{Op: OpAdd, Left: v("X"), Right: Arith{Op: OpMul, Left: v("Y"), Right: ci(2)}}
	got := a.Vars(nil)
	if len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Fatalf("vars: %v", got)
	}
	if len(c("k").Vars(nil)) != 0 {
		t.Fatal("const has no vars")
	}
}

func TestCmpOpEval(t *testing.T) {
	i2, f2, i3 := value.NewInt(2), value.NewFloat(2), value.NewInt(3)
	a, b := value.NewString("a"), value.NewString("b")
	// Beyond 2^53 two ints can round to one float64; they compare exactly.
	big, bigPlus1, bigF := value.NewInt(1<<53), value.NewInt(1<<53+1), value.NewFloat(1<<53)
	zero, negZero := value.NewFloat(0), value.NewFloat(math.Copysign(0, -1))
	for _, c := range []struct {
		op   CmpOp
		a, b value.Value
		want bool
	}{
		{CmpEq, i2, f2, true}, // an Int and a Float of one exact value are equal
		{CmpNe, i2, f2, false},
		{CmpLt, i2, i3, true}, {CmpLt, i3, i2, false}, {CmpLt, i2, f2, false},
		{CmpLe, i2, f2, true}, {CmpGe, f2, i2, true},
		{CmpLt, a, b, true}, {CmpNe, a, b, true},
		{CmpNe, big, bigPlus1, true}, {CmpLt, big, bigPlus1, true}, {CmpEq, big, bigPlus1, false},
		{CmpEq, big, bigF, true}, {CmpGt, bigPlus1, bigF, true},
		{CmpLt, negZero, zero, true}, {CmpEq, value.NewInt(0), negZero, true},
	} {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestLiteralVarsAndBinding(t *testing.T) {
	g := &Aggregate{
		Inner:   atom("hop", v("S"), v("D"), v("C")),
		GroupBy: []Var{"S", "D"},
		Result:  "M",
		Func:    AggMin,
		Arg:     v("C"),
	}
	lit := Literal{Kind: LitAggregate, Agg: g}
	binds := lit.BindsVars(nil)
	if len(binds) != 3 { // S, D, M
		t.Fatalf("binds: %v", binds)
	}
	uses := lit.UsesVars(nil)
	joined := strings.Join(uses, ",")
	for _, want := range []string{"S", "D", "C", "M"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("uses missing %s: %v", want, uses)
		}
	}
	if len(neg("q", v("X")).BindsVars(nil)) != 0 {
		t.Fatal("negation binds nothing")
	}
}

func TestProgramPredSets(t *testing.T) {
	p := &Program{Rules: []Rule{
		{Head: atom("hop", v("X"), v("Y")), Body: []Literal{pos("link", v("X"), v("Z")), pos("link", v("Z"), v("Y"))}},
		{Head: atom("tri", v("X"), v("Y")), Body: []Literal{pos("hop", v("X"), v("Z")), pos("link", v("Z"), v("Y"))}},
	}}
	if d := p.DerivedPreds(); !d["hop"] || !d["tri"] || len(d) != 2 {
		t.Fatalf("derived: %v", d)
	}
	if b := p.BasePreds(); !b["link"] || len(b) != 1 {
		t.Fatalf("base: %v", b)
	}
	if rs := p.RulesFor("hop"); len(rs) != 1 || rs[0] != 0 {
		t.Fatalf("rulesFor: %v", rs)
	}
}

func TestValidateAcceptsPaperPrograms(t *testing.T) {
	progs := []*Program{
		{Rules: []Rule{{
			Head: atom("hop", v("X"), v("Y")),
			Body: []Literal{pos("link", v("X"), v("Z")), pos("link", v("Z"), v("Y"))},
		}}},
		{Rules: []Rule{{
			Head: atom("oth", v("X")),
			Body: []Literal{pos("t", v("X")), neg("h", v("X"))},
		}}},
		{Rules: []Rule{{
			Head: atom("m", v("S"), v("M")),
			Body: []Literal{{Kind: LitAggregate, Agg: &Aggregate{
				Inner: atom("u", v("S"), v("C")), GroupBy: []Var{"S"}, Result: "M", Func: AggSum, Arg: v("C"),
			}}},
		}}},
	}
	for i, p := range progs {
		if err := Validate(p); err != nil {
			t.Errorf("program %d: %v", i, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := map[string]*Program{
		"unbound head var": {Rules: []Rule{{
			Head: atom("p", v("X"), v("Y")),
			Body: []Literal{pos("q", v("X"))},
		}}},
		"unsafe negation": {Rules: []Rule{{
			Head: atom("p", v("X")),
			Body: []Literal{pos("q", v("X")), neg("r", v("Y"))},
		}}},
		"unsafe condition": {Rules: []Rule{{
			Head: atom("p", v("X")),
			Body: []Literal{pos("q", v("X")), {Kind: LitCondition, Cond: &Condition{Op: CmpLt, Left: v("Z"), Right: ci(3)}}},
		}}},
		"arith in body atom": {Rules: []Rule{{
			Head: atom("p", v("X")),
			Body: []Literal{pos("q", v("X"), Arith{Op: OpAdd, Left: v("X"), Right: ci(1)})},
		}}},
		"groupvar not in inner": {Rules: []Rule{{
			Head: atom("p", v("S"), v("M")),
			Body: []Literal{{Kind: LitAggregate, Agg: &Aggregate{
				Inner: atom("u", v("A"), v("C")), GroupBy: []Var{"S"}, Result: "M", Func: AggSum, Arg: v("C"),
			}}, pos("x", v("S"))},
		}}},
		"result var occurs in inner": {Rules: []Rule{{
			Head: atom("p", v("S"), v("M")),
			Body: []Literal{{Kind: LitAggregate, Agg: &Aggregate{
				Inner: atom("u", v("S"), v("M")), GroupBy: []Var{"S"}, Result: "M", Func: AggSum, Arg: v("M"),
			}}},
		}}},
		"agg arg var foreign": {Rules: []Rule{{
			Head: atom("p", v("S"), v("M")),
			Body: []Literal{pos("w", v("Z")), {Kind: LitAggregate, Agg: &Aggregate{
				Inner: atom("u", v("S"), v("C")), GroupBy: []Var{"S"}, Result: "M", Func: AggSum, Arg: v("Z"),
			}}},
		}}},
		"unknown agg func": {Rules: []Rule{{
			Head: atom("p", v("S"), v("M")),
			Body: []Literal{{Kind: LitAggregate, Agg: &Aggregate{
				Inner: atom("u", v("S"), v("C")), GroupBy: []Var{"S"}, Result: "M", Func: "median", Arg: v("C"),
			}}},
		}}},
		"self-aggregate": {Rules: []Rule{{
			Head: atom("p", v("S"), v("M")),
			Body: []Literal{{Kind: LitAggregate, Agg: &Aggregate{
				Inner: atom("p", v("S"), v("C")), GroupBy: []Var{"S"}, Result: "M", Func: AggSum, Arg: v("C"),
			}}},
		}}},
		"arity mismatch": {Rules: []Rule{
			{Head: atom("p", v("X")), Body: []Literal{pos("q", v("X"))}},
			{Head: atom("p", v("X"), v("Y")), Body: []Literal{pos("q", v("X")), pos("q", v("Y"))}},
		}},
		"no relational subgoal": {Rules: []Rule{{
			Head: atom("p", v("X")),
			Body: []Literal{{Kind: LitCondition, Cond: &Condition{Op: CmpLt, Left: v("X"), Right: ci(3)}}},
		}}},
	}
	for name, p := range bad {
		if err := Validate(p); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestValidationErrorMessage(t *testing.T) {
	p := &Program{Rules: []Rule{{
		Head: atom("p", v("X"), v("Y")),
		Body: []Literal{pos("q", v("X"))},
	}}}
	err := Validate(p)
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type: %T", err)
	}
	if !strings.Contains(ve.Error(), "head variable Y") {
		t.Fatalf("message: %v", ve)
	}
}

func TestRuleStringZeroBody(t *testing.T) {
	r := Rule{Head: atom("p", c("a"))}
	if r.String() != "p(a)." {
		t.Fatalf("fact rule render: %q", r.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	p := &Program{Rules: []Rule{{Head: atom("p", v("X")), Body: []Literal{pos("q", v("X"))}}}}
	cl := p.Clone()
	cl.Rules = append(cl.Rules, Rule{Head: atom("r", v("X")), Body: []Literal{pos("q", v("X"))}})
	if len(p.Rules) != 1 {
		t.Fatal("clone must not share the rule slice")
	}
}
