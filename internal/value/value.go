// Package value defines the scalar value model used throughout the engine:
// typed constants (int64, float64, string) with total ordering, hashing and
// arithmetic. Tuples are fixed-arity sequences of values with a canonical
// encoding suitable for use as map keys.
package value

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

const (
	// Int is a 64-bit signed integer value.
	Int Kind = iota
	// Float is a 64-bit IEEE-754 value.
	Float
	// String is an immutable UTF-8 string value.
	String
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar database value. The zero Value is the integer 0.
// An Int and a Float are never both live, so they share n: the int64
// itself, or the float64's IEEE-754 bits.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{kind: Int, n: uint64(i)} }

// NewFloat returns a floating-point Value.
func NewFloat(f float64) Value { return Value{kind: Float, n: math.Float64bits(f)} }

// NewString returns a string Value.
func NewString(s string) Value { return Value{kind: String, s: s} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload. It panics if v is not an Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("value: Int() on " + v.kind.String())
	}
	return int64(v.n)
}

// Float returns the float payload, converting an Int transparently.
// It panics if v is a String.
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return math.Float64frombits(v.n)
	case Int:
		return float64(int64(v.n))
	}
	panic("value: Float() on " + v.kind.String())
}

// Str returns the string payload. It panics if v is not a String.
func (v Value) Str() string {
	if v.kind != String {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

// IsNumeric reports whether v is an Int or Float.
func (v Value) IsNumeric() bool { return v.kind == Int || v.kind == Float }

// Compare is a total order of values consistent with == (key identity):
// v.Compare(o) == 0 exactly when v == o. Numerics sort before strings and
// compare by exact value, an Int against a Float without rounding either
// to the other, with NaN below every number. Among values of one exact
// value the Int comes first, then -0.0, then 0.0; NaNs sort among
// themselves by their bits. Strings compare bytewise. The result is -1, 0
// or +1.
func (v Value) Compare(o Value) int {
	c := v.CompareNumeric(o)
	if c == 0 && v.kind != o.kind { // 1 and 1.0
		c = cmp.Compare(v.kind, o.kind)
	}
	return c
}

// CompareNumeric is Compare without its one tie-break across kinds: an Int
// and a Float of the same exact value (1 and 1.0, 0 and -0.0) compare 0.
// It is the order of rule conditions, where 1 = 1.0.
func (v Value) CompareNumeric(o Value) int {
	switch {
	case v.kind == String || o.kind == String:
		if v.kind != o.kind {
			return cmp.Compare(v.kind, o.kind) // numerics first
		}
		return strings.Compare(v.s, o.s)
	case v.kind == Int && o.kind == Int:
		return cmp.Compare(int64(v.n), int64(o.n))
	case v.kind == Float && o.kind == Float:
		if c := cmp.Compare(math.Float64frombits(v.n), math.Float64frombits(o.n)); c != 0 || v.n == o.n {
			return c
		}
		return cmp.Compare(int64(v.n), int64(o.n)) // -0.0 and 0.0, or two NaNs: by bits, sign first
	case v.kind == Int:
		return compareIntFloat(int64(v.n), math.Float64frombits(o.n))
	default:
		return -compareIntFloat(int64(o.n), math.Float64frombits(v.n))
	}
}

// compareIntFloat compares i with f exactly, NaN below every int.
func compareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 1
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63), so int64(t) is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// String renders v in the surface syntax: integers and floats as literals,
// strings bare when they look like identifiers, quoted otherwise. Float
// rendering is round-trip safe: a whole float like 5.0 prints as "5.0"
// (never "5"), so reparsing the text yields a Float again, not an Int
// with a different identity.
func (v Value) String() string {
	switch {
	case v.kind == Int:
		return strconv.FormatInt(int64(v.n), 10) // small ints come out of strconv's static table
	case v.kind == String && isIdent(v.s):
		return v.s
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends exactly what String renders to dst and returns the
// extended slice, allocating nothing when dst has room — the form the
// serving layer's encoder writes values in.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case Int:
		return strconv.AppendInt(dst, int64(v.n), 10)
	case Float:
		start, f := len(dst), math.Float64frombits(v.n)
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		// NaN/±Inf have no literal syntax and render for display only;
		// store-bound Views.Apply rejects them since a logged record
		// holding one could never replay.
		if bytes.IndexAny(dst[start:], ".eE") < 0 && !math.IsInf(f, 0) && !math.IsNaN(f) {
			dst = append(dst, ".0"...)
		}
		return dst
	default:
		if isIdent(v.s) {
			return append(dst, v.s...)
		}
		return strconv.AppendQuote(dst, v.s)
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
			if i == 0 {
				return false // would parse as a variable
			}
		case r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// A leading '_' (like a leading upper-case letter) would lex as a
	// variable, so such strings must render quoted.
	c := s[0]
	return c >= 'a' && c <= 'z'
}

// appendKey appends a canonical, injective encoding of v to b.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case Int:
		b = append(b, 'i')
		b = strconv.AppendInt(b, int64(v.n), 10)
	case Float:
		b = append(b, 'f')
		b = strconv.AppendUint(b, v.n, 16)
	default:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.s)), 10)
		b = append(b, ':')
		b = append(b, v.s...)
	}
	return b
}

// Arithmetic errors.
type ArithError struct{ Op, Detail string }

func (e *ArithError) Error() string { return "value: " + e.Op + ": " + e.Detail }

func numeric2(op string, a, b Value) (Value, Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return Value{}, Value{}, &ArithError{op, fmt.Sprintf("non-numeric operand (%s, %s)", a.Kind(), b.Kind())}
	}
	return a, b, nil
}

// Add returns a+b with Int+Int staying Int and any Float promoting.
func Add(a, b Value) (Value, error) {
	if _, _, err := numeric2("add", a, b); err != nil {
		return Value{}, err
	}
	if a.kind == Int && b.kind == Int {
		return NewInt(a.Int() + b.Int()), nil
	}
	return NewFloat(a.Float() + b.Float()), nil
}

// Sub returns a-b under the same promotion rules as Add.
func Sub(a, b Value) (Value, error) {
	if _, _, err := numeric2("sub", a, b); err != nil {
		return Value{}, err
	}
	if a.kind == Int && b.kind == Int {
		return NewInt(a.Int() - b.Int()), nil
	}
	return NewFloat(a.Float() - b.Float()), nil
}

// Mul returns a*b under the same promotion rules as Add.
func Mul(a, b Value) (Value, error) {
	if _, _, err := numeric2("mul", a, b); err != nil {
		return Value{}, err
	}
	if a.kind == Int && b.kind == Int {
		return NewInt(a.Int() * b.Int()), nil
	}
	return NewFloat(a.Float() * b.Float()), nil
}

// Div returns a/b; integer division truncates, division by zero errors.
func Div(a, b Value) (Value, error) {
	if _, _, err := numeric2("div", a, b); err != nil {
		return Value{}, err
	}
	if a.kind == Int && b.kind == Int {
		if b.n == 0 {
			return Value{}, &ArithError{"div", "integer division by zero"}
		}
		return NewInt(a.Int() / b.Int()), nil
	}
	d := b.Float()
	if d == 0 {
		return Value{}, &ArithError{"div", "float division by zero"}
	}
	return NewFloat(a.Float() / d), nil
}

// Tuple is a fixed-arity sequence of values. Tuples are treated as
// immutable once constructed.
type Tuple []Value

// Key returns a canonical injective string encoding of t, usable as a map
// key. Distinct tuples always produce distinct keys. Every call builds a
// fresh string: hot paths encode into a scratch buffer with AppendKey and
// keep Key for cold ones (explanations, generators, a row's first insert).
func (t Tuple) Key() string {
	var buf [KeyScratch]byte
	return string(t.AppendKey(buf[:0]))
}

// KeyScratch is the size of the stack buffer a probe encodes a key into:
// var buf [KeyScratch]byte; m[string(t.AppendKey(buf[:0]))]. Longer keys
// spill to the heap inside append; nothing else changes.
const KeyScratch = 128

// AppendKey appends t's canonical encoding to b and returns the extended
// slice, avoiding the string allocation of Key when a scratch buffer is
// available: string(t.AppendKey(nil)) == t.Key().
func (t Tuple) AppendKey(b []byte) []byte {
	for _, v := range t {
		b = v.appendKey(b)
		b = append(b, '|')
	}
	return b
}

var errBadKey = errors.New("value: malformed tuple key")

// valueEnd returns the index of the '|' that ends the encoded value
// starting b — the inverse of appendKey's framing and nothing more: only
// a string's length, which has to be trusted, is vetted.
func valueEnd[S string | []byte](b S) (int, error) {
	i := 1
	if len(b) > 0 && b[0] == 's' {
		n := 0
		for ; i < len(b) && b[i] != ':'; i++ {
			if b[i] < '0' || b[i] > '9' || n > len(b) {
				return 0, errBadKey
			}
			n = n*10 + int(b[i]-'0')
		}
		if n >= len(b)-i { // also a missing ':'
			return 0, errBadKey
		}
		i += 1 + n
	} else {
		for i < len(b) && b[i] != '|' {
			i++
		}
	}
	if i >= len(b) || b[i] != '|' {
		return 0, errBadKey
	}
	return i, nil
}

// KeyLen returns the length of the canonical key of arity values that
// leads b, without decoding it: how a reader walks keys laid end to end.
func KeyLen(b []byte, arity int) (int, error) {
	n := 0
	for ; arity > 0; arity-- {
		end, err := valueEnd(b[n:])
		if err != nil {
			return 0, err
		}
		n += end + 1
	}
	return n, nil
}

// DecodeKey decodes into t the canonical key (what AppendKey renders) of
// len(t) values, string values aliasing key. Only the canonical spelling
// is accepted: whatever a field parses to, t must encode back to key.
func DecodeKey(t Tuple, key string) error {
	rest := key
	for i := range t {
		end, err := valueEnd(rest)
		if err != nil {
			return err
		}
		switch body := rest[1:end]; rest[0] {
		case 'i':
			n, _ := strconv.ParseInt(body, 10, 64)
			t[i] = NewInt(n)
		case 'f':
			bits, _ := strconv.ParseUint(body, 16, 64)
			t[i] = NewFloat(math.Float64frombits(bits))
		case 's':
			t[i] = NewString(body[strings.IndexByte(body, ':')+1:])
		}
		rest = rest[end+1:]
	}
	var buf [KeyScratch]byte
	if rest != "" || string(t.AppendKey(buf[:0])) != key {
		return errBadKey
	}
	return nil
}

// AppendProjKey appends the canonical encoding of t's projection on cols
// — the bytes t.Project(cols).AppendKey would produce — without building
// the subtuple.
func (t Tuple) AppendProjKey(b []byte, cols []int) []byte {
	for _, c := range cols {
		b = t[c].appendKey(b)
		b = append(b, '|')
	}
	return b
}

// Equal reports element-wise ==, which is key identity: t.Equal(o)
// exactly when t.Key() == o.Key().
func (t Tuple) Equal(o Tuple) bool { return slices.Equal(t, o) }

// Compare orders tuples lexicographically; shorter tuples sort first on ties.
func (t Tuple) Compare(o Tuple) int {
	n := min(len(t), len(o))
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return len(t) - len(o)
}

// Project returns the subtuple at the given column positions.
func (t Tuple) Project(cols []int) Tuple {
	p := make(Tuple, len(cols))
	for i, c := range cols {
		p[i] = t[c]
	}
	return p
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// T is a convenience constructor turning Go scalars into a Tuple.
// Supported argument types: int, int64, float64, string, Value.
func T(vals ...any) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			t[i] = NewInt(int64(x))
		case int64:
			t[i] = NewInt(x)
		case float64:
			t[i] = NewFloat(x)
		case string:
			t[i] = NewString(x)
		case Value:
			t[i] = x
		default:
			panic(fmt.Sprintf("value.T: unsupported type %T", v))
		}
	}
	return t
}
