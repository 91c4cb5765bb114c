package server

import (
	"bytes"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"ivm"
)

// The wire encoder. A commit leaves the engine as a ChangeSet and is
// rendered by hand, once for all its live subscribers, into the bytes
// each is served; a resume's backlog renders the history's ChangeSets
// the same way. The output is byte-compatible with encoding/json over the
// client package's Event/ApplyResult/RowsResponse structs (HTML escaping
// included) — encode_test.go holds the two against each other — so
// clients decode it with encoding/json.

// commit is what remains of a ChangeSet once it is encoded: its version
// and its encoding. Immutable and shared by every subscriber's buffer.
type commit struct {
	version uint64
	// line is the whole event: {"version":V,"deltas":[D1,D2,...]}\n
	line []byte
	// frags locate the per-predicate Delta objects D1, D2, ... inside
	// line, in name order; a predicate-filtered subscriber is served a
	// selection of them.
	frags []fragment
}

// fragment is one predicate's client.Delta object: line[start:end].
type fragment struct {
	pred       string
	start, end int
}

// encoder carries the scratch a render needs. Encoders are pooled and
// the finished bytes copied out at exact size, so a commit costs the
// same handful of allocations whether it changed ten rows or ten
// thousand.
type encoder struct {
	buf   []byte     // the document being built
	text  []byte     // one value's surface syntax, before JSON quoting
	frags []fragment // where each Delta object sits in buf
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encodeCommit renders cs; nil when no visible predicate changed (such
// a commit has no event).
func encodeCommit(cs *ivm.ChangeSet) *commit {
	if cs.Empty() {
		return nil
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf = appendVersion(e.buf[:0], cs.Version())
	e.buf = append(e.buf, `,"deltas":[`...)
	e.frags = e.frags[:0]
	cs.Each(func(pred string, inserted, deleted []ivm.Row) {
		if len(inserted) == 0 && len(deleted) == 0 {
			return
		}
		if len(e.frags) > 0 {
			e.buf = append(e.buf, ',')
		}
		start := len(e.buf)
		e.appendDelta(pred, inserted, deleted)
		e.frags = append(e.frags, fragment{pred, start, len(e.buf)})
	})
	if len(e.frags) == 0 {
		return nil
	}
	e.buf = append(e.buf, "]}\n"...)
	return &commit{version: cs.Version(), line: bytes.Clone(e.buf), frags: slices.Clone(e.frags)}
}

// kept counts the fragments a subscriber to preds (nil = every
// predicate) is served: 0 means c is no event for it, len(c.frags) means
// c.line is its event as it stands.
func (c *commit) kept(preds map[string]bool) int {
	if preds == nil {
		return len(c.frags)
	}
	n := 0
	for _, f := range c.frags {
		if preds[f.pred] {
			n++
		}
	}
	return n
}

// appendEvent appends c's event line narrowed to preds, which keep at
// least one fragment.
func (c *commit) appendEvent(b []byte, preds map[string]bool) []byte {
	b = appendVersion(b, c.version)
	b = append(b, `,"deltas":`...)
	sep := byte('[')
	for _, f := range c.frags {
		if preds[f.pred] {
			b = append(append(b, sep), c.line[f.start:f.end]...)
			sep = ','
		}
	}
	return append(b, "]}\n"...)
}

// ackLine is the acknowledgment of an apply: the version it published,
// or for a deduped retry the version the original apply published.
func ackLine(version uint64, deduped bool) []byte {
	b := appendVersion(make([]byte, 0, 48), version)
	if deduped {
		b = append(b, `,"deduped":true`...)
	}
	return append(b, "}\n"...)
}

// encodeRows renders a /v1/rows response (client.RowsResponse).
func encodeRows(version uint64, pred string, rows []ivm.Row) []byte {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf = appendVersion(e.buf[:0], version)
	e.buf = append(e.buf, `,"pred":`...)
	e.buf = appendJSONString(e.buf, pred)
	e.buf = append(e.buf, `,"rows":`...)
	if len(rows) == 0 {
		e.buf = append(e.buf, "null"...)
	} else {
		e.appendRows(rows)
	}
	e.buf = append(e.buf, "}\n"...)
	return bytes.Clone(e.buf)
}

func appendVersion(b []byte, version uint64) []byte {
	b = append(b, `{"version":`...)
	return strconv.AppendUint(b, version, 10)
}

// appendDelta appends one client.Delta object; at least one of the two
// row lists is non-empty.
func (e *encoder) appendDelta(pred string, inserted, deleted []ivm.Row) {
	e.buf = append(e.buf, `{"pred":`...)
	e.buf = appendJSONString(e.buf, pred)
	if len(inserted) > 0 {
		e.buf = append(e.buf, `,"inserted":`...)
		e.appendRows(inserted)
	}
	if len(deleted) > 0 {
		e.buf = append(e.buf, `,"deleted":`...)
		e.appendRows(deleted)
	}
	e.buf = append(e.buf, '}')
}

// appendRows appends a JSON array of client.Row objects: each value
// travels as a JSON string holding its surface syntax.
func (e *encoder) appendRows(rows []ivm.Row) {
	b := append(e.buf, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"tuple":[`...)
		for j, v := range row.Tuple {
			if j > 0 {
				b = append(b, ',')
			}
			e.text = v.AppendText(e.text[:0])
			b = appendJSONString(b, e.text)
		}
		b = append(b, `],"count":`...)
		b = strconv.AppendInt(b, row.Count, 10)
		b = append(b, '}')
	}
	e.buf = append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping exactly
// what encoding/json escapes by default: the quote, the backslash,
// control bytes, <, > and & (its HTML-safe mode), U+2028/U+2029, and
// invalid UTF-8 as U+FFFD.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
