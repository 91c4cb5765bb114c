package relation

import (
	"bytes"
	"slices"

	"ivm/internal/value"
)

// Reader is the read-only access interface rule evaluation uses. Besides
// *Relation itself, cheap composable views implement it: Overlay presents
// "base ⊎ delta" without materializing it (so maintenance can see the new
// state of a relation while the stored state is still old), SetView
// presents the set image (all counts 1) used when deriving higher strata
// under set semantics (paper Section 5.1), and Refs and Places hold the
// rows one DRed round admitted, by reference or by place.
type Reader interface {
	// Arity returns the relation arity (-1 if unknown).
	Arity() int
	// Len estimates the number of distinct tuples (used by join-order
	// heuristics; views may approximate).
	Len() int
	// Count returns the signed count of t (0 if absent).
	Count(t value.Tuple) int64
	// Has reports whether t is present with positive count.
	Has(t value.Tuple) bool
	// Each visits every row (unspecified order).
	Each(f func(Row))
}

var (
	_ Reader = (*Relation)(nil)
	_ Reader = (*overlay)(nil)
	_ Reader = (*setView)(nil)
	_ Reader = (*Refs)(nil)
	_ Reader = (*Places)(nil)
)

// Refs is a Reader over distinct rows of one arity, at count 1, held by
// reference to the blocks relations stored them in (16 bytes a row; a Row
// is 48): the Δ image of one semi-naive round, which its join pins first
// and only scans, so Count, Has and lookups scan too. Empty, arity is -1.
type Refs struct {
	arity int32
	refs  []ref
}

// Append refers s to r's row at position p, which s must not hold yet.
func (s *Refs) Append(r *Relation, p int) {
	c := &r.rows.cells[p]
	s.arity, s.refs = r.arity, append(s.refs, ref{c.vals, c.kl})
}

// Reset empties s, keeping its array and clearing the references out of it.
func (s *Refs) Reset() {
	clear(s.refs)
	s.refs = s.refs[:0]
}

func (s *Refs) Arity() int {
	if len(s.refs) == 0 {
		return -1
	}
	return int(s.arity)
}

func (s *Refs) Len() int { return len(s.refs) }

// At returns the i-th row, 0 ≤ i < Len(), in the order they were appended.
func (s *Refs) At(i int) Row { return s.refs[i].row(s.arity) }

func (s *Refs) Each(f func(Row))          { scanEach(s, f) }
func (s *Refs) Count(t value.Tuple) int64 { return scanCount(s, t) }
func (s *Refs) Has(t value.Tuple) bool    { return scanCount(s, t) > 0 }

// Places is a Reader over the rows at distinct places of a stored
// relation, at count 1, in the order listed, read where the state keeps
// them while it does not change: one round of DRed's steps 1 and 2. Like
// Refs it is only scanned. Empty, arity is -1.
type Places struct {
	s  *Stored
	ps []int32
}

// Places returns the Reader over the rows at places ps of s.
func (s *Stored) Places(ps []int32) Places { return Places{s, ps} }

func (w *Places) Arity() int {
	if len(w.ps) == 0 {
		return -1
	}
	return w.s.Arity()
}

func (w *Places) Len() int { return len(w.ps) }

// At returns the row at the i-th place listed, 0 ≤ i < Len().
func (w *Places) At(i int) Row {
	c := w.s.cellAt(int(w.ps[i]))
	return (&ref{c.vals, c.kl}).row(int32(w.s.Arity()))
}

func (w *Places) Each(f func(Row))          { scanEach(w, f) }
func (w *Places) Count(t value.Tuple) int64 { return scanCount(w, t) }
func (w *Places) Has(t value.Tuple) bool    { return scanCount(w, t) > 0 }

// rowList is Refs or Places, which count and look up by scanning.
type rowList interface {
	Len() int
	At(i int) Row
}

func scanEach(s rowList, f func(Row)) {
	for i := range s.Len() {
		f(s.At(i))
	}
}

func scanCount(s rowList, t value.Tuple) int64 {
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	for i := range s.Len() {
		if s.At(i).key == string(kb) {
			return 1
		}
	}
	return 0
}

// scanLookup is LookupRun for s: a scan, whose rows it writes into *buf.
func scanLookup(s rowList, cols []int, keyVals value.Tuple, buf *[]Row) Run {
	var kbuf, pbuf [value.KeyScratch]byte
	kb := keyVals.AppendKey(kbuf[:0])
	out := (*buf)[:0]
	for i := range s.Len() {
		if row := s.At(i); bytes.Equal(row.Tuple.AppendProjKey(pbuf[:0], cols), kb) {
			out = append(out, row)
		}
	}
	*buf = out
	return Run{rows: out}
}

// overlay is the non-materialized base ⊎ delta view.
type overlay struct {
	base  Reader
	delta Reader
}

// Overlay returns a Reader presenting base ⊎ delta (Section 3's union)
// without copying either. Rows whose combined count is zero vanish.
// If delta is nil or empty, base itself is returned.
func Overlay(base Reader, delta Reader) Reader {
	if delta == nil {
		return base
	}
	if d, ok := delta.(*Relation); ok && d.Empty() {
		return base
	}
	return &overlay{base: base, delta: delta}
}

func (o *overlay) Len() int {
	// Upper bound: deltas may cancel base rows.
	return o.base.Len() + o.delta.Len()
}

func (o *overlay) Arity() int {
	if a := o.base.Arity(); a >= 0 {
		return a
	}
	return o.delta.Arity()
}

// Count encodes and hashes t once where base and delta are both stored
// relations.
func (o *overlay) Count(t value.Tuple) int64 {
	if !byKey(o.base) || !byKey(o.delta) {
		return o.base.Count(t) + o.delta.Count(t)
	}
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	h := hashBytes(kb)
	return countHashed(o.base, h, kb) + countHashed(o.delta, h, kb)
}

// byKey reports whether r is a *Relation or a *Stored, which count by key.
func byKey(r Reader) bool {
	switch r.(type) {
	case *Relation, *Stored:
		return true
	}
	return false
}

// countHashed is the count of key kb, hashed to h, in r, a stored relation
// (a type switch, not an interface call, which kb would escape to).
func countHashed(r Reader, h uint32, kb []byte) int64 {
	if s, ok := r.(*Stored); ok {
		return s.countHashed(h, kb)
	}
	return countAt(r.(*Relation), h, kb)
}

func (o *overlay) Has(t value.Tuple) bool { return o.Count(t) > 0 }

func (o *overlay) Each(f func(Row)) {
	// Snapshot the delta once so base rows are patched with O(1) map
	// probes on cached keys instead of per-row key re-encoding. A delta
	// row leaves the snapshot when its base row is met, so what remains
	// afterwards is exactly the rows the base does not have.
	dm := make(map[string]int64, o.delta.Len())
	o.delta.Each(func(row Row) { dm[row.Key()] = row.Count })
	o.base.Each(func(row Row) {
		k := row.Key()
		if d, ok := dm[k]; ok {
			delete(dm, k)
			row.Count += d
		}
		if row.Count != 0 {
			f(row)
		}
	})
	if len(dm) == 0 {
		return
	}
	o.delta.Each(func(row Row) {
		if _, ok := dm[row.Key()]; ok && row.Count != 0 {
			f(row)
		}
	})
}

// DistinctEst mirrors Len's upper-bound convention: the overlay has at
// most the base's distinct values plus the delta's.
func (o *overlay) DistinctEst(col int) int {
	return DistinctEstimate(o.base, col) + DistinctEstimate(o.delta, col)
}

// PreferredIndex forwards to the base side — the delta is typically tiny
// and cheap to index on whatever columns the base already indexes.
func (o *overlay) PreferredIndex(bound []int) []int {
	return PreferredIndexFor(o.base, bound)
}

// Run is the answer to a probe: a relation's rows read through their
// positions in an index run, or rows in a slice. It is read-only, and valid
// until the relation it reads is mutated or the buffer it was built in is
// used again.
type Run struct {
	rel  *Relation
	pos  []int32
	rows []Row
}

// Len is the number of rows in the run: one of pos and rows is empty.
func (r Run) Len() int { return len(r.pos) + len(r.rows) }

// Row returns the run's i-th row.
func (r Run) Row(i int) Row {
	if r.rel != nil {
		return r.rel.At(int(r.pos[i]))
	}
	return r.rows[i]
}

// AppendTo appends the run's rows to dst, which may be the slice the run
// reads: a copy onto itself moves nothing.
func (r Run) AppendTo(dst []Row) []Row {
	dst = slices.Grow(dst, r.Len())
	for i := range r.Len() {
		dst = append(dst, r.Row(i))
	}
	return dst
}

// LookupRun returns the rows of r whose projection on cols is keyVals,
// for a caller that probes again and again: a relation's run is read
// where its index keeps it, and where r has to build its answer — an
// overlay merging the runs of its base and its delta, a set image
// recounting them — it builds it in *buf, grown as needed, which the
// caller keeps for its next probe.
func LookupRun(r Reader, cols []int, keyVals value.Tuple, buf *[]Row) Run {
	return lookupRun(r, cols, keyVals, keyHash(keyVals), buf)
}

// lookupRun is LookupRun for keyVals hashed to h.
func lookupRun(r Reader, cols []int, keyVals value.Tuple, h uint32, buf *[]Row) Run {
	switch x := r.(type) {
	case *Relation:
		return x.run(cols, keyVals, h)
	case *Stored:
		return x.lookup(cols, keyVals, h, buf)
	case *overlay:
		return x.lookup(cols, keyVals, h, buf)
	case *setView:
		return x.lookup(cols, keyVals, h, buf)
	}
	return scanLookup(r.(rowList), cols, keyVals, buf) // the last Readers, Refs and Places: a scan
}

// LookupInto is LookupRun for a caller that wants the rows in a slice:
// the run's rows, built in *buf. The answer is read-only, and valid until
// the next call with buf.
func LookupInto(r Reader, cols []int, keyVals value.Tuple, buf *[]Row) []Row {
	*buf = LookupRun(r, cols, keyVals, buf).AppendTo((*buf)[:0])
	return *buf
}

// lookup merges the base's run for keyVals with the delta's: a base row
// takes the delta's count for its tuple, a delta row joins the run only
// where the base has no count for its tuple, and rows whose counts cancel
// leave it. Count probes by the tuple's key, the identity an index's ==
// compares, so the merge costs one probe per row of either run whatever
// their lengths. Without a delta row the base's run is the answer as it is.
func (o *overlay) lookup(cols []int, keyVals value.Tuple, h uint32, buf *[]Row) Run {
	base := lookupRun(o.base, cols, keyVals, h, buf)
	var dbuf []Row // a delta that builds its run builds it here
	del := lookupRun(o.delta, cols, keyVals, h, &dbuf)
	if del.Len() == 0 {
		return base
	}
	out := base.AppendTo((*buf)[:0])
	nb := len(out)
	out = del.AppendTo(out)
	n := 0
	for i, row := range out {
		if i < nb {
			row.Count += o.delta.Count(row.Tuple)
		} else if row.Count == 0 || o.base.Count(row.Tuple) != 0 {
			continue
		}
		if row.Count != 0 {
			out[n] = row
			n++
		}
	}
	clear(out[n:])
	out = out[:n]
	*buf = out
	return Run{rows: out}
}

// setView presents the set image of a reader: positive-count tuples with
// count 1, everything else absent.
type setView struct {
	r Reader
}

// SetImage returns a Reader showing r's set image (every positive-count
// tuple with count 1). Used to implement the per-stratum count convention
// of Section 5.1 under set semantics.
func SetImage(r Reader) Reader {
	if sv, ok := r.(*setView); ok {
		return sv
	}
	return &setView{r: r}
}

func (s *setView) Arity() int { return s.r.Arity() }

func (s *setView) Len() int { return s.r.Len() }

func (s *setView) Count(t value.Tuple) int64 {
	if s.r.Count(t) > 0 {
		return 1
	}
	return 0
}

func (s *setView) Has(t value.Tuple) bool { return s.r.Has(t) }

// DistinctEst forwards to the underlying reader: the set image has the
// same positive-count tuples, so per-column distincts carry over.
func (s *setView) DistinctEst(col int) int { return DistinctEstimate(s.r, col) }

// PreferredIndex forwards to the underlying reader.
func (s *setView) PreferredIndex(bound []int) []int { return PreferredIndexFor(s.r, bound) }

func (s *setView) Each(f func(Row)) {
	s.r.Each(func(row Row) {
		if row.Count > 0 {
			f(row.WithCount(1))
		}
	})
}

// lookup is LookupRun for the set image: r's run as it is when every
// count is already 1, else its positive rows at count 1, written into
// *buf over r's run if that is where it lies.
func (s *setView) lookup(cols []int, keyVals value.Tuple, h uint32, buf *[]Row) Run {
	rows := lookupRun(s.r, cols, keyVals, h, buf)
	i := 0
	for i < rows.Len() && rows.Row(i).Count == 1 {
		i++
	}
	if i == rows.Len() {
		return rows // already its own set image: nothing to copy
	}
	out := (*buf)[:0]
	for i := range rows.Len() {
		if row := rows.Row(i); row.Count > 0 {
			out = append(out, row.WithCount(1))
		}
	}
	*buf = out
	return Run{rows: out}
}
