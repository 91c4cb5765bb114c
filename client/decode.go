package client

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// UnmarshalJSON decodes one Delta by hand. Deltas are where an ack's or
// an event's bytes are — thousands of rows of a few short strings each —
// and the reflective decoder pays for every one of them: a slice grown
// by doubling per row list and per tuple, a string per value. This
// decoder makes one copy of the document, walks it once to count, and
// allocates the rows and all their values as two slabs of exactly that
// size; a value without escapes is a substring of the copy.
//
// The result is what encoding/json would have produced for the same
// bytes, quirks included (case-insensitive keys, null handling, a
// repeated key decoding over the earlier value) — decode_test.go and
// FuzzDecodeDelta hold the two against each other.
func (d *Delta) UnmarshalJSON(data []byte) error {
	p := deltaParser{s: string(data), counting: true}
	if err := p.document(new(Delta)); err != nil { // counting stores nothing
		return err
	}
	p.i, p.counting = 0, false
	p.rows, p.vals = make([]Row, p.nrows), make([]string, p.nvals)
	return p.document(d)
}

// deltaParser walks one Delta document twice: counting, then filling.
type deltaParser struct {
	s string
	i int

	counting     bool
	nrows, nvals int

	// rows and vals are the unused tails of the two slabs.
	rows []Row
	vals []string
}

var errTruncated = errors.New("ivmd: decoding delta: unexpected end of JSON input")

func (p *deltaParser) errorf(format string, args ...any) error {
	return fmt.Errorf("ivmd: decoding delta at offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte (0 at the end).
func (p *deltaParser) peek() byte {
	for p.i < len(p.s) {
		switch c := p.s[p.i]; c {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return c
		}
	}
	return 0
}

// null consumes the literal null.
func (p *deltaParser) null() error {
	if len(p.s)-p.i < 4 || p.s[p.i:p.i+4] != "null" {
		return p.errorf("invalid literal")
	}
	p.i += 4
	return nil
}

func (p *deltaParser) document(d *Delta) error {
	switch p.peek() {
	case 'n':
		// json.Unmarshaler convention: null is a no-op.
		if err := p.null(); err != nil {
			return err
		}
	case '{':
		err := p.object(func(key string) error {
			switch {
			case isField(key, "pred"):
				return p.value(&d.Pred)
			case isField(key, "inserted"):
				return list(p, "row list", &d.Inserted, &p.rows, &p.nrows, (*deltaParser).row)
			case isField(key, "deleted"):
				return list(p, "row list", &d.Deleted, &p.rows, &p.nrows, (*deltaParser).row)
			}
			return p.skip()
		})
		if err != nil {
			return err
		}
	case 0:
		return errTruncated
	default:
		return p.errorf("cannot decode %q into a Delta", p.s[p.i])
	}
	if p.peek() != 0 {
		return p.errorf("invalid character %q after the value", p.s[p.i])
	}
	return nil
}

// object walks the object at p.i, calling member with each key; member
// consumes the value (skipping the whitespace before it).
func (p *deltaParser) object(member func(key string) error) error {
	p.i++ // '{'
	if p.peek() == '}' {
		p.i++
		return nil
	}
	for {
		if p.peek() != '"' {
			return p.errorf("expected an object key")
		}
		key, err := p.str()
		if err != nil {
			return err
		}
		if p.peek() != ':' {
			return p.errorf("expected ':' after an object key")
		}
		p.i++
		if err := member(key); err != nil {
			return err
		}
		switch p.peek() {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		case 0:
			return errTruncated
		default:
			return p.errorf("expected ',' or '}' in an object")
		}
	}
}

// array walks the array at p.i, calling element at each element (which
// consumes it, leading whitespace included), and returns how many there
// were.
func (p *deltaParser) array(element func(i int) error) (int, error) {
	p.i++ // '['
	if p.peek() == ']' {
		p.i++
		return 0, nil
	}
	for n := 0; ; {
		if err := element(n); err != nil {
			return 0, err
		}
		n++
		switch p.peek() {
		case ',':
			p.i++
		case ']':
			p.i++
			return n, nil
		case 0:
			return 0, errTruncated
		default:
			return 0, p.errorf("expected ',' or ']' in an array")
		}
	}
}

// list decodes a JSON array of T into *dst, under two regimes. A list
// seen for the first time is carved off slab, which the counting pass
// (it adds the list's length to *count and hands elem a nil element)
// sized to hold every such list;
// one decoded over an earlier value (a repeated key) follows
// encoding/json: elements decode over the old ones in place, the slice
// grows by append and is cut to the new length.
func list[T any](p *deltaParser, what string, dst, slab *[]T, count *int, elem func(*deltaParser, *T) error) error {
	switch p.peek() {
	case 'n':
		if !p.counting {
			*dst = nil
		}
		return p.null()
	case '[':
	default:
		if p.counting {
			return p.skip()
		}
		return p.errorf("cannot decode %q into a %s", p.s[p.i], what)
	}
	if p.counting {
		n, err := p.array(func(int) error { return elem(p, nil) })
		*count += n
		return err
	}
	out := *dst
	carved := cap(out) == 0
	if carved {
		out = (*slab)[:0]
	}
	n, err := p.array(func(i int) error {
		out = grow(out, i)
		return elem(p, &out[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*dst = []T{}
		return nil
	}
	if carved && n <= len(*slab) {
		// The slab held them all: nothing moved, and the next list starts
		// where this one ends.
		out, *slab = out[:n:n], (*slab)[n:]
	}
	*dst = out[:n]
	return nil
}

// grow makes s[i] addressable the way encoding/json's array decoding
// does: within the capacity the slice is re-extended over whatever the
// backing array holds, beyond it a zero element is appended.
func grow[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// row decodes one element of a row list (a null leaves it as it is);
// the counting pass has no element to decode into.
func (p *deltaParser) row(r *Row) error {
	if r == nil {
		r = new(Row)
	}
	switch p.peek() {
	case 'n':
		return p.null()
	case '{':
	default:
		if p.counting {
			return p.skip()
		}
		return p.errorf("cannot decode %q into a Row", p.s[p.i])
	}
	return p.object(func(key string) error {
		switch {
		case isField(key, "tuple"):
			return list(p, "tuple", &r.Tuple, &p.vals, &p.nvals, (*deltaParser).value)
		case isField(key, "count") && !p.counting:
			return p.intInto(&r.Count)
		}
		return p.skip()
	})
}

// value decodes a string field or one element of a tuple.
func (p *deltaParser) value(dst *string) error {
	if p.counting {
		return p.skip()
	}
	return p.stringInto(dst)
}

// stringInto decodes a string (or a null, which leaves *dst alone).
func (p *deltaParser) stringInto(dst *string) error {
	switch p.peek() {
	case 'n':
		return p.null()
	case '"':
		s, err := p.str()
		*dst = s
		return err
	}
	return p.errorf("cannot decode %q into a string", p.s[p.i])
}

// intInto decodes an integer (or a null, which leaves *dst alone).
func (p *deltaParser) intInto(dst *int64) error {
	c := p.peek()
	if c == 'n' {
		return p.null()
	}
	if c != '-' && (c < '0' || c > '9') {
		return p.errorf("cannot decode %q into a count", c)
	}
	start := p.i
	for p.i < len(p.s) && isNumberByte(p.s[p.i]) {
		p.i++
	}
	n, err := strconv.ParseInt(p.s[start:p.i], 10, 64)
	if err != nil {
		return p.errorf("cannot decode number %s into a count", p.s[start:p.i])
	}
	*dst = n
	return nil
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// str decodes the string literal at p.i. One without escapes, control
// bytes or malformed UTF-8 — nearly all of them — is returned as a
// substring of the document; the rest go through unquote.
func (p *deltaParser) str() (string, error) {
	start := p.i + 1
	simple := true
	for j := start; j < len(p.s); {
		c := p.s[j]
		switch {
		case c == '"':
			p.i = j + 1
			if simple {
				return p.s[start:j], nil
			}
			s, ok := unquote(p.s[start:j])
			if !ok {
				return "", p.errorf("invalid string literal")
			}
			return s, nil
		case c == '\\':
			simple = false
			j += 2
		case c < ' ':
			p.i = j
			return "", p.errorf("invalid control character in a string literal")
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRuneInString(p.s[j:])
			if r == utf8.RuneError && size == 1 {
				simple = false
			}
			j += size
		}
	}
	p.i = len(p.s)
	return "", errTruncated
}

// unquote resolves the escapes of a string literal's inside and coerces
// malformed UTF-8 to U+FFFD, as encoding/json does.
func unquote(s string) (string, bool) {
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			r++
			if r >= len(s) {
				return "", false
			}
			switch s[r] {
			case '"', '\\', '/', '\'':
				b = append(b, s[r])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+1:])
				if rr < 0 {
					return "", false
				}
				r += 4
				if utf16.IsSurrogate(rr) {
					// A valid pair is consumed whole; a lone or mismatched
					// surrogate becomes U+FFFD and what follows it is read
					// again on its own.
					if len(s)-r > 2 && s[r+1] == '\\' && s[r+2] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+3:])); dec != unicode.ReplacementChar {
							r += 6
							b = utf8.AppendRune(b, dec)
							break
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
			default:
				return "", false
			}
			r++
		case c == '"', c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRuneInString(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return string(b), true
}

// hex4 decodes the four hex digits s starts with, -1 if it does not.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip consumes one value of any shape without decoding it.
func (p *deltaParser) skip() error {
	depth := 0
	for p.peek() != 0 {
		switch c := p.s[p.i]; {
		case c == '"':
			// Only the end of the literal is wanted.
			for p.i++; p.i < len(p.s) && p.s[p.i] != '"'; p.i++ {
				if p.s[p.i] == '\\' {
					p.i++
				}
			}
			if p.i >= len(p.s) {
				return errTruncated
			}
			p.i++
		case c == '{' || c == '[':
			depth++
			p.i++
		case c == '}' || c == ']':
			if depth == 0 {
				return p.errorf("expected a value")
			}
			depth--
			p.i++
		case depth > 0:
			p.i++ // a separator or a byte of a scalar inside a container
		default:
			for p.i < len(p.s) && !isDelimiter(p.s[p.i]) {
				p.i++
			}
		}
		if depth == 0 {
			return nil
		}
	}
	return errTruncated
}

func isDelimiter(c byte) bool {
	switch c {
	case ',', ':', '{', '}', '[', ']', '"', ' ', '\t', '\r', '\n':
		return true
	}
	return false
}

// isField reports whether an object key names the field, the way
// encoding/json matches keys: exactly, or else under Unicode simple case
// folding (so "PRED" and "inſerted" match too). name is lower-case ASCII.
func isField(key, name string) bool {
	if key == name {
		return true
	}
	j := 0
	for _, r := range key {
		if j == len(name) {
			return false
		}
		switch {
		case 'a' <= r && r <= 'z':
			r -= 'a' - 'A'
		case r >= utf8.RuneSelf:
			r = foldRune(r)
		}
		if r != rune(name[j])-('a'-'A') {
			return false
		}
		j++
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
