// Package parser implements the surface syntax of the engine's extended
// Datalog dialect:
//
//	link(a, b).                                  % fact
//	link(a, b) * 4.                              % fact with multiplicity
//	hop(X, Y)  :- link(X, Z), link(Z, Y).        % rule ('&' also accepted)
//	oth(X, Y)  :- t(X, Y), !hop(X, Y).           % negation ('not' also accepted)
//	mch(S,D,M) :- groupby(hop(S,D,C), [S,D], M = min(C)).
//	hop(S,D,C1+C2) :- link(S,I,C1), link(I,D,C2).
//	big(X)     :- p(X, C), C > 5.
//
// Identifiers starting with a lower-case letter are constants/predicates;
// upper-case (or '_'-prefixed) identifiers are variables. Comments run
// from '%', '#', or '//' to end of line.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVar
	tokInt
	tokFloat
	tokString
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokDot
	tokImplies // :-
	tokAmp     // &
	tokBang    // !
	tokEq      // =
	tokNe      // !=
	tokLt
	tokLe
	tokGt
	tokGe
	tokPlus
	tokMinus
	tokStar
	tokSlash
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokImplies:
		return "':-'"
	case tokAmp:
		return "'&'"
	case tokBang:
		return "'!'"
	case tokEq:
		return "'='"
	case tokNe:
		return "'!='"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	}
	return "?"
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// SyntaxError reports a lexical or grammatical problem with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '%' || c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	startLine, startCol := l.line, l.col
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: startLine, col: startCol}
	}
	if l.pos >= len(l.src) {
		return mk(tokEOF, ""), nil
	}
	c := l.src[l.pos]
	switch c {
	case '(':
		l.advance(1)
		return mk(tokLParen, "("), nil
	case ')':
		l.advance(1)
		return mk(tokRParen, ")"), nil
	case '[':
		l.advance(1)
		return mk(tokLBracket, "["), nil
	case ']':
		l.advance(1)
		return mk(tokRBracket, "]"), nil
	case ',':
		l.advance(1)
		return mk(tokComma, ","), nil
	case '.':
		// Distinguish the rule terminator from a float like ".5"? We do
		// not support leading-dot floats; '.' is always a terminator.
		l.advance(1)
		return mk(tokDot, "."), nil
	case ':':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			l.advance(2)
			return mk(tokImplies, ":-"), nil
		}
		return token{}, l.errf("unexpected ':'")
	case '&':
		l.advance(1)
		return mk(tokAmp, "&"), nil
	case '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.advance(2)
			return mk(tokNe, "!="), nil
		}
		l.advance(1)
		return mk(tokBang, "!"), nil
	case '=':
		l.advance(1)
		return mk(tokEq, "="), nil
	case '<':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.advance(2)
			return mk(tokLe, "<="), nil
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.advance(2)
			return mk(tokNe, "<>"), nil
		}
		l.advance(1)
		return mk(tokLt, "<"), nil
	case '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.advance(2)
			return mk(tokGe, ">="), nil
		}
		l.advance(1)
		return mk(tokGt, ">"), nil
	case '+':
		l.advance(1)
		return mk(tokPlus, "+"), nil
	case '-':
		l.advance(1)
		return mk(tokMinus, "-"), nil
	case '*':
		l.advance(1)
		return mk(tokStar, "*"), nil
	case '/':
		l.advance(1)
		return mk(tokSlash, "/"), nil
	case '"':
		return l.lexString(mk)
	}
	if c >= '0' && c <= '9' {
		return l.lexNumber(mk)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	if isIdentStart(r) {
		return l.lexIdent(mk)
	}
	return token{}, l.errf("unexpected character %q", c)
}

func (l *lexer) lexString(mk func(tokenKind, string) token) (token, error) {
	l.advance(1) // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.advance(1)
			return mk(tokString, sb.String()), nil
		case '\\':
			// Every escape strconv.Quote can emit, since that is what
			// Value.String renders a non-identifier string with and a
			// rendered script must re-parse (WAL replay): \n \t \\ \" and
			// also \a \b \f \r \v, \xHH for a byte of malformed UTF-8,
			// \uHHHH and \UHHHHHHHH for unprintable runes.
			r, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], '"')
			if err != nil {
				if l.pos+1 >= len(l.src) {
					return token{}, l.errf("unterminated escape in string")
				}
				return token{}, l.errf("unknown escape \\%c", l.src[l.pos+1])
			}
			if multibyte {
				sb.WriteRune(r)
			} else {
				sb.WriteByte(byte(r))
			}
			l.advance(len(l.src) - l.pos - len(tail))
		case '\n':
			return token{}, l.errf("unterminated string literal")
		default:
			sb.WriteByte(c)
			l.advance(1)
		}
	}
	return token{}, l.errf("unterminated string literal")
}

func (l *lexer) lexNumber(mk func(tokenKind, string) token) (token, error) {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.advance(1)
	}
	isFloat := false
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		isFloat = true
		l.advance(1)
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.advance(1)
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.advance(1)
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.advance(1)
		}
		if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			isFloat = true
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.advance(1)
			}
		} else {
			// Not an exponent after all; back out (e.g. "12e" as ident-ish
			// junk — let the next token fail naturally).
			l.pos = save
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		return mk(tokFloat, text), nil
	}
	return mk(tokInt, text), nil
}

func (l *lexer) lexIdent(mk func(tokenKind, string) token) (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, sz := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.advance(sz)
	}
	text := l.src[start:l.pos]
	r, _ := utf8.DecodeRuneInString(text)
	if unicode.IsUpper(r) || r == '_' {
		return mk(tokVar, text), nil
	}
	return mk(tokIdent, text), nil
}
