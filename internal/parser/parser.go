package parser

import (
	"fmt"
	"slices"
	"strconv"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

// Fact is a ground base tuple with a signed multiplicity, as produced by
// fact clauses and delta scripts.
type Fact struct {
	Pred  string
	Tuple value.Tuple
	Count int64
}

// Result is the output of parsing a source text: the rules (the view
// program) and the ground facts it contained.
type Result struct {
	Program *datalog.Program
	Facts   []Fact
}

type parser struct {
	lex *lexer
	tok token
	// one-token pushback
	peeked  *token
	deltaOK bool // allow +fact / -fact clauses
	// fact takes each fact as it is read, its tuple reused for the next.
	fact  func(Fact)
	tuple value.Tuple
}

// Parse parses a program text containing rules and facts.
func Parse(src string) (*Result, error) {
	res := &Result{}
	if err := parse(src, false, res, res.collect); err != nil {
		return nil, err
	}
	return res, nil
}

// collect appends f, its tuple copied, to the facts.
func (res *Result) collect(f Fact) {
	f.Tuple = slices.Clone(f.Tuple)
	res.Facts = append(res.Facts, f)
}

// ParseDelta parses a delta script: fact clauses optionally prefixed with
// '+' (insert, default) or '-' (delete), with optional '* n' multiplicity.
// Rules are not allowed in delta scripts.
func ParseDelta(src string) ([]Fact, error) {
	res := &Result{}
	if err := EachDelta(src, res.collect); err != nil {
		return nil, err
	}
	return res.Facts, nil
}

// EachDelta parses a delta script as ParseDelta does, handing each fact to
// add as it is read: the fact's tuple is reused for the next one, so add
// keeps a copy if it keeps anything.
func EachDelta(src string, add func(Fact)) error {
	res := &Result{}
	err := parse(src, true, res, add)
	if err == nil && len(res.Program.Rules) > 0 {
		err = fmt.Errorf("parse error: rules are not allowed in a delta script (got %q)", res.Program.Rules[0].String())
	}
	return err
}

// ParseRules parses a text expected to contain only rules.
func ParseRules(src string) (*datalog.Program, error) {
	res, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(res.Facts) > 0 {
		f := res.Facts[0]
		return nil, fmt.Errorf("parse error: facts are not allowed here (got %s%s)", f.Pred, f.Tuple)
	}
	return res.Program, nil
}

// parse parses src into res.Program, handing its facts to fact.
func parse(src string, deltaOK bool, res *Result, fact func(Fact)) error {
	p := &parser{lex: newLexer(src), deltaOK: deltaOK, fact: fact}
	res.Program = &datalog.Program{}
	if err := p.advance(); err != nil {
		return err
	}
	for p.tok.kind != tokEOF {
		if err := p.clause(res.Program); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) advance() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peek() (token, error) {
	if p.peeked == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %s, got %s %q", k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

// clause parses one fact or rule ending in '.'.
func (p *parser) clause(prog *datalog.Program) error {
	sign := int64(1)
	signed := false
	if p.deltaOK && (p.tok.kind == tokPlus || p.tok.kind == tokMinus) {
		if p.tok.kind == tokMinus {
			sign = -1
		}
		signed = true
		if err := p.advance(); err != nil {
			return err
		}
	}

	head, err := p.atom()
	if err != nil {
		return err
	}

	switch p.tok.kind {
	case tokDot, tokStar:
		// Fact, possibly with multiplicity.
		mult := int64(1)
		if p.tok.kind == tokStar {
			if err := p.advance(); err != nil {
				return err
			}
			neg := false
			if p.tok.kind == tokMinus {
				neg = true
				if err := p.advance(); err != nil {
					return err
				}
			}
			nt, err := p.expect(tokInt)
			if err != nil {
				return err
			}
			mult, err = strconv.ParseInt(nt.text, 10, 64)
			if err != nil {
				return p.errf("bad multiplicity %q", nt.text)
			}
			if neg {
				mult = -mult
			}
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		p.tuple = p.tuple[:0]
		for _, arg := range head.Args {
			c, ok := arg.(datalog.Const)
			if !ok {
				return p.errf("fact %s has non-constant argument %s", head.Pred, arg)
			}
			p.tuple = append(p.tuple, c.Value)
		}
		p.fact(Fact{Pred: head.Pred, Tuple: p.tuple, Count: sign * mult})
		return nil
	case tokImplies:
		if signed {
			return p.errf("a rule cannot carry a +/- delta sign")
		}
		if err := p.advance(); err != nil {
			return err
		}
		body, err := p.body()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		prog.Rules = append(prog.Rules, datalog.Rule{Head: head, Body: body})
		return nil
	default:
		return p.errf("expected '.' or ':-' after %s, got %s %q", head.Pred, p.tok.kind, p.tok.text)
	}
}

// body parses a conjunction of literals separated by ',' or '&'.
func (p *parser) body() ([]datalog.Literal, error) {
	var out []datalog.Literal
	for {
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		out = append(out, lit)
		if p.tok.kind == tokComma || p.tok.kind == tokAmp {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		return out, nil
	}
}

func (p *parser) literal() (datalog.Literal, error) {
	switch {
	case p.tok.kind == tokBang:
		if err := p.advance(); err != nil {
			return datalog.Literal{}, err
		}
		a, err := p.atom()
		if err != nil {
			return datalog.Literal{}, err
		}
		return datalog.Literal{Kind: datalog.LitNegated, Atom: a}, nil

	case p.tok.kind == tokIdent && p.tok.text == "not":
		// 'not foo(...)' — but 'not' followed by anything other than an
		// identifier+paren is a predicate named not.
		nt, err := p.peek()
		if err != nil {
			return datalog.Literal{}, err
		}
		if nt.kind == tokIdent {
			if err := p.advance(); err != nil {
				return datalog.Literal{}, err
			}
			a, err := p.atom()
			if err != nil {
				return datalog.Literal{}, err
			}
			return datalog.Literal{Kind: datalog.LitNegated, Atom: a}, nil
		}
		fallthrough

	case p.tok.kind == tokIdent && p.tok.text == "groupby":
		if p.tok.text == "groupby" {
			return p.groupby()
		}
		fallthrough

	default:
		return p.relOrCond()
	}
}

// relOrCond parses either a positive atom or a comparison condition.
func (p *parser) relOrCond() (datalog.Literal, error) {
	// An atom starts with ident '('; everything else is a condition.
	if p.tok.kind == tokIdent {
		nt, err := p.peek()
		if err != nil {
			return datalog.Literal{}, err
		}
		if nt.kind == tokLParen {
			a, err := p.atom()
			if err != nil {
				return datalog.Literal{}, err
			}
			return datalog.Literal{Kind: datalog.LitPositive, Atom: a}, nil
		}
	}
	left, err := p.expr()
	if err != nil {
		return datalog.Literal{}, err
	}
	var op datalog.CmpOp
	switch p.tok.kind {
	case tokEq:
		op = datalog.CmpEq
	case tokNe:
		op = datalog.CmpNe
	case tokLt:
		op = datalog.CmpLt
	case tokLe:
		op = datalog.CmpLe
	case tokGt:
		op = datalog.CmpGt
	case tokGe:
		op = datalog.CmpGe
	default:
		return datalog.Literal{}, p.errf("expected comparison operator, got %s %q", p.tok.kind, p.tok.text)
	}
	if err := p.advance(); err != nil {
		return datalog.Literal{}, err
	}
	right, err := p.expr()
	if err != nil {
		return datalog.Literal{}, err
	}
	return datalog.Literal{Kind: datalog.LitCondition, Cond: &datalog.Condition{Op: op, Left: left, Right: right}}, nil
}

// groupby parses: groupby(atom, [V1, ...], R = func(expr))
func (p *parser) groupby() (datalog.Literal, error) {
	if err := p.advance(); err != nil { // consume 'groupby'
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return datalog.Literal{}, err
	}
	inner, err := p.atom()
	if err != nil {
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokLBracket); err != nil {
		return datalog.Literal{}, err
	}
	var groupBy []datalog.Var
	for p.tok.kind != tokRBracket {
		vt, err := p.expect(tokVar)
		if err != nil {
			return datalog.Literal{}, err
		}
		groupBy = append(groupBy, datalog.Var(vt.text))
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return datalog.Literal{}, err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ']'
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return datalog.Literal{}, err
	}
	rt, err := p.expect(tokVar)
	if err != nil {
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokEq); err != nil {
		return datalog.Literal{}, err
	}
	ft, err := p.expect(tokIdent)
	if err != nil {
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return datalog.Literal{}, err
	}
	arg, err := p.expr()
	if err != nil {
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return datalog.Literal{}, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return datalog.Literal{}, err
	}
	agg := &datalog.Aggregate{
		Inner:   inner,
		GroupBy: groupBy,
		Result:  datalog.Var(rt.text),
		Func:    datalog.AggFunc(ft.text),
		Arg:     arg,
	}
	return datalog.Literal{Kind: datalog.LitAggregate, Agg: agg}, nil
}

// atom parses pred(t1, ..., tn); a bare identifier is a zero-arity atom.
func (p *parser) atom() (datalog.Atom, error) {
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return datalog.Atom{}, err
	}
	a := datalog.Atom{Pred: nameTok.text}
	if p.tok.kind != tokLParen {
		return a, nil
	}
	if err := p.advance(); err != nil {
		return datalog.Atom{}, err
	}
	if p.tok.kind == tokRParen {
		return a, p.advance()
	}
	for {
		t, err := p.expr()
		if err != nil {
			return datalog.Atom{}, err
		}
		a.Args = append(a.Args, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return datalog.Atom{}, err
			}
			continue
		}
		if _, err := p.expect(tokRParen); err != nil {
			return datalog.Atom{}, err
		}
		return a, nil
	}
}

// expr parses additive expressions over multiplicative ones; the leaves
// are variables, constants, parenthesized expressions and unary minus.
func (p *parser) expr() (datalog.Term, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := datalog.OpAdd
		if p.tok.kind == tokMinus {
			op = datalog.OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		left = datalog.Arith{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) mulExpr() (datalog.Term, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := datalog.OpMul
		if p.tok.kind == tokSlash {
			op = datalog.OpDiv
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = datalog.Arith{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) unary() (datalog.Term, error) {
	if p.tok.kind == tokMinus {
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.unary()
		if err != nil {
			return nil, err
		}
		// Fold constant negation; otherwise 0 - t.
		if c, ok := t.(datalog.Const); ok && c.Value.IsNumeric() {
			switch c.Value.Kind() {
			case value.Int:
				return datalog.Const{Value: value.NewInt(-c.Value.Int())}, nil
			default:
				return datalog.Const{Value: value.NewFloat(-c.Value.Float())}, nil
			}
		}
		return datalog.Arith{Op: datalog.OpSub, Left: datalog.Const{Value: value.NewInt(0)}, Right: t}, nil
	}
	return p.primary()
}

func (p *parser) primary() (datalog.Term, error) {
	switch p.tok.kind {
	case tokVar:
		v := datalog.Var(p.tok.text)
		return v, p.advance()
	case tokIdent:
		c := datalog.Const{Value: value.NewString(p.tok.text)}
		return c, p.advance()
	case tokString:
		c := datalog.Const{Value: value.NewString(p.tok.text)}
		return c, p.advance()
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		return datalog.Const{Value: value.NewInt(n)}, p.advance()
	case tokFloat:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.tok.text)
		}
		return datalog.Const{Value: value.NewFloat(f)}, p.advance()
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return t, nil
	default:
		return nil, p.errf("expected a term, got %s %q", p.tok.kind, p.tok.text)
	}
}

// ParseGoal parses a single query goal — one atom whose arguments are
// variables or constants, e.g. `hop(a, X)` — used by the query API.
func ParseGoal(src string) (datalog.Atom, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return datalog.Atom{}, err
	}
	a, err := p.atom()
	if err != nil {
		return datalog.Atom{}, err
	}
	// Tolerate an optional trailing '.'.
	if p.tok.kind == tokDot {
		if err := p.advance(); err != nil {
			return datalog.Atom{}, err
		}
	}
	if p.tok.kind != tokEOF {
		return datalog.Atom{}, p.errf("unexpected %s %q after goal", p.tok.kind, p.tok.text)
	}
	for _, t := range a.Args {
		if _, ok := t.(datalog.Arith); ok {
			return datalog.Atom{}, p.errf("goals may not contain arithmetic expressions")
		}
	}
	return a, nil
}
