package relation

import (
	"maps"
	"strconv"
	"sync/atomic"

	"ivm/internal/value"
)

// index is a hash index over a subset of columns. Buckets map the key of
// the projected subtuple to the rows currently matching it. Indexes are
// maintained incrementally once built (see idxAdd). A bucket is held by
// pointer so that maintenance rewrites it in place: only a new bucket
// needs its projection key as a string.
type index struct {
	cols    []int
	buckets map[string]*bucket
}

// A bucket is written in place only by the relation whose gen it carries.
// cloneIndexed shares buckets between a frozen relation and its copy under
// a fresh gen, so the copy's first write to a bucket copies it (idxAdd)
// and the rows slice a reader of the original holds is never touched. The
// mark is a number, not a *Relation: a shared bucket outlives its first
// owner and must not keep it reachable.
type bucket struct {
	rows []Row
	gen  uint64
}

// lastGen hands out the gens of relations that share buckets; every other
// relation has gen 0 and only ever sees buckets it made itself.
var lastGen atomic.Uint64

// cloneIndexed is Clone for the successor of a frozen relation, with the
// table made for n ≥ r.Len() rows: the copy also takes every index r has
// built — each bucket map is copied, the buckets themselves are shared
// until written — so merging a delta into it maintains those indexes
// incrementally instead of leaving the next reader to rebuild them over
// all of r.
func (r *Relation) cloneIndexed(n int) *Relation {
	c := &Relation{arity: r.arity, rows: r.rows.clone(sizedCells(n))}
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	if len(r.idx) == 0 {
		return c
	}
	c.gen = lastGen.Add(1)
	c.idx = make(map[string]*index, len(r.idx))
	for sig, ix := range r.idx {
		c.idx[sig] = &index{cols: ix.cols, buckets: maps.Clone(ix.buckets)}
	}
	c.hasIdx.Store(true)
	return c
}

// appendColsSig appends the signature that names the index on cols.
func appendColsSig(b []byte, cols []int) []byte {
	for _, c := range cols {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return b
}

func colsSig(cols []int) string {
	return string(appendColsSig(make([]byte, 0, 3*len(cols)), cols))
}

// Lookup returns all rows whose projection on cols equals key's tuple
// values. An index on cols is built on first use and kept up to date by
// subsequent Add/Delete calls. Neither cols nor keyVals is retained, so
// callers may pass buffers they reuse; a lookup on a built index
// allocates nothing. The returned rows are read-only.
//
// Lookup is safe to call from concurrent readers (Views.Query and
// session reads probe a pinned version from any number of goroutines
// while the writer evaluates): the lazy index build is guarded by idxMu
// with a read-locked fast path, so concurrent Lookups never race even
// when they trigger the first build. Mutations
// (Add/Delete) must still be externally serialized against readers.
func (r *Relation) Lookup(cols []int, keyVals value.Tuple) []Row {
	var sigBuf [32]byte
	sig := appendColsSig(sigBuf[:0], cols)
	r.idxMu.RLock()
	ix := r.idx[string(sig)]
	r.idxMu.RUnlock()
	if ix == nil {
		ix = r.buildIndex(cols)
	}
	var buf [value.KeyScratch]byte
	if b := ix.buckets[string(keyVals.AppendKey(buf[:0]))]; b != nil {
		return b.rows
	}
	return nil
}

// buildIndex returns the index on cols, building it unless a concurrent
// reader got there first.
func (r *Relation) buildIndex(cols []int) *index {
	sig := colsSig(cols)
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if ix := r.idx[sig]; ix != nil {
		return ix
	}
	if r.idx == nil {
		r.idx = make(map[string]*index)
	}
	// The index outlives the call: it must not alias the caller's slice.
	ix := &index{cols: append([]int(nil), cols...), buckets: make(map[string]*bucket)}
	var buf [value.KeyScratch]byte
	r.Each(func(row Row) {
		pk := row.Tuple.AppendProjKey(buf[:0], ix.cols)
		b := ix.buckets[string(pk)]
		if b == nil {
			b = &bucket{gen: r.gen}
			ix.buckets[string(pk)] = b
		}
		b.rows = append(b.rows, row)
	})
	r.idx[sig] = ix
	r.hasIdx.Store(true)
	indexesBuilt.Add(1)
	return ix
}

// idxAdd keeps existing indexes in sync with a count change of delta on
// row's tuple (row.Count itself is ignored); stored says the tuple was in
// the relation before the change, and only then is its bucket searched.
// Rows are stored denormalized in buckets, so the bucket entry is
// rewritten in place — in r's own copy of the bucket, made on the first
// write if r shares it. Writers are serialized by contract, but idxMu is
// still taken so the race detector stays clean if a stray reader overlaps
// a mutation.
func (r *Relation) idxAdd(row Row, delta int64, stored bool) {
	if !r.hasIdx.Load() {
		return
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	var buf [value.KeyScratch]byte
	for _, ix := range r.idx {
		pk := row.Tuple.AppendProjKey(buf[:0], ix.cols)
		b := ix.buckets[string(pk)]
		if b == nil || b.gen != r.gen {
			nb := &bucket{gen: r.gen}
			if b != nil { // shared with the relation r was cloned from
				nb.rows = append(make([]Row, 0, len(b.rows)+1), b.rows...)
			}
			b = nb
			ix.buckets[string(pk)] = b
		}
		at := -1
		for i := 0; stored && i < len(b.rows); i++ {
			if b.rows[i].key == row.key {
				at = i
				break
			}
		}
		switch {
		case at < 0:
			b.rows = append(b.rows, row.WithCount(delta))
		case b.rows[at].Count+delta != 0:
			b.rows[at].Count += delta
		default:
			b.rows = append(b.rows[:at], b.rows[at+1:]...)
			if len(b.rows) == 0 {
				delete(ix.buckets, string(pk))
			}
		}
	}
}
