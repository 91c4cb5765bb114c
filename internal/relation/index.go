package relation

import (
	"slices"
	"sync"

	"ivm/internal/value"
)

// index is a hash index over a subset of columns: one flat open-addressing
// table of slots, probed linearly like the row table (table.go), one slot
// per distinct projection. A slot holds the projection's hash and its run —
// the rows currently matching it — and no key: a probe compares the run's
// first row with the probe values by key identity (== on value.Value,
// which tells apart exactly what the canonical encoding does, a float by
// its bits), so a stored row is never encoded again. A slot is occupied iff
// its run is non-empty. Indexes are maintained incrementally once built
// (idxAdd).
type index struct {
	cols  []int
	slots []slot
	n     int // occupied slots
	mul   uint32
	chunk []Row // spare rows the runs of new keys are carved from
}

type slot struct {
	run []Row
	h   uint32
	// shared marks a run that the frozen relation this index was cloned
	// from still serves to its readers: it is copied before the first write.
	shared bool
}

// chunkRows is the length of the chunks new keys' one-row runs are cut from.
const chunkRows = 16

// cloneIndexed is Clone for the successor of a frozen relation, with the
// table made for n ≥ r.Len() rows: the copy also takes every index r has
// built — each key table is copied, the runs are shared until written —
// so merging a delta into it maintains those indexes incrementally
// instead of leaving the next reader to rebuild them over all of r.
func (r *Relation) cloneIndexed(n int) *Relation {
	c := &Relation{arity: r.arity, rows: r.rows.clone(sizedCells(n))}
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	for _, ix := range r.idx {
		slots := slices.Clone(ix.slots)
		for i := range slots {
			slots[i].shared = true
		}
		c.idx = append(c.idx, &index{cols: ix.cols, slots: slots, n: ix.n, mul: ix.mul})
	}
	return c
}

// index returns r's index on cols, or nil. The caller holds idxMu.
func (r *Relation) index(cols []int) *index {
	for _, ix := range r.idx {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	return nil
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
	r.idxMu.RLock()
	ix := r.index(cols)
	r.idxMu.RUnlock()
	if ix == nil {
		ix = r.buildIndex(cols)
	}
	var buf [value.KeyScratch]byte
	if i := ix.find(hashBytes(keyVals.AppendKey(buf[:0])), keyVals); i >= 0 {
		run := ix.slots[i].run
		return run[:len(run):len(run)]
	}
	return nil
}

// buildIndex returns the index on cols, building it unless a concurrent
// reader got there first. One pass over pooled scratch numbers the
// distinct keys; then the key table is made for exactly that many and
// every run is carved, at its exact length, from one []Row: a build makes
// the same few objects however many keys it finds.
func (r *Relation) buildIndex(cols []int) *index {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if ix := r.index(cols); ix != nil {
		return ix
	}
	// The index outlives the call: it must not alias the caller's slice.
	ix := &index{cols: slices.Clone(cols), mul: nextMul()}
	cells := r.rows.cells
	sc := scratches.Get().(*scratch)
	of, probe := grow(sc.of, len(cells)), grow(sc.probe, sizedCells(r.Len()))
	first, hs := sc.first[:0], sc.hs[:0]
	clear(probe)
	var kbuf [value.KeyScratch]byte
	var vbuf [4]value.Value
	for i, c := range cells {
		if c.count == 0 {
			continue
		}
		key := ix.project(vbuf[:0], r.row(c).Tuple)
		h := hashBytes(key.AppendKey(kbuf[:0]))
		j := homeOf(h, ix.mul, len(probe))
		for ; probe[j] != 0; j = (j + 1) % len(probe) {
			if k := probe[j] - 1; hs[k] == h && ix.holds(r.row(cells[first[k]]).Tuple, key) {
				break
			}
		}
		if probe[j] == 0 {
			first, hs = append(first, int32(i)), append(hs, h)
			probe[j] = int32(len(first))
		}
		of[i] = probe[j] - 1
	}
	// Counted and summed, pos[k] is where key k's run ends; filled from
	// the back, where it starts. pos[len(first)] stays the end of them all.
	pos := grow(sc.pos, len(first)+1)
	clear(pos)
	for i, c := range cells {
		if c.count != 0 {
			pos[of[i]]++
		}
	}
	for k := 1; k < len(pos); k++ {
		pos[k] += pos[k-1]
	}
	rows := make([]Row, r.Len())
	for i := len(cells) - 1; i >= 0; i-- {
		if cells[i].count != 0 {
			pos[of[i]]--
			rows[pos[of[i]]] = r.row(cells[i])
		}
	}
	ix.slots = make([]slot, sizedCells(len(first)))
	for k, h := range hs {
		ix.place(slot{run: rows[pos[k]:pos[k+1]:pos[k+1]], h: h})
	}
	*sc = scratch{of: of, probe: probe, first: first, hs: hs, pos: pos}
	scratches.Put(sc)
	r.idx = append(r.idx, ix)
	indexesBuilt.Add(1)
	return ix
}

// scratch is buildIndex's working memory, pooled: per cell the number of
// its key (of), the table that numbers the keys (probe), and per key its
// first cell, its hash and where its run starts.
type scratch struct {
	of, probe, first, pos []int32
	hs                    []uint32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resized to n, reusing its array when that is large enough.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// project appends t's values on ix.cols to dst.
func (ix *index) project(dst, t value.Tuple) value.Tuple {
	for _, c := range ix.cols {
		dst = append(dst, t[c])
	}
	return dst
}

// find returns the slot of the run whose projection is key, hashed to h,
// or -1.
func (ix *index) find(h uint32, key value.Tuple) int {
	if len(ix.slots) == 0 {
		return -1
	}
	for i := homeOf(h, ix.mul, len(ix.slots)); ; {
		s := &ix.slots[i]
		if len(s.run) == 0 {
			return -1
		}
		if s.h == h && ix.holds(s.run[0].Tuple, key) {
			return i
		}
		if i++; i == len(ix.slots) {
			i = 0
		}
	}
}

// holds reports whether t projects on ix.cols to key.
func (ix *index) holds(t, key value.Tuple) bool {
	for i, c := range ix.cols {
		if t[c] != key[i] {
			return false
		}
	}
	return true
}

// place stores s in the first empty slot at or after its home.
func (ix *index) place(s slot) {
	i := homeOf(s.h, ix.mul, len(ix.slots))
	for len(ix.slots[i].run) != 0 {
		if i++; i == len(ix.slots) {
			i = 0
		}
	}
	ix.slots[i] = s
	ix.n++
}

// del empties slot i, moving back the later slots of its run as table.del does.
func (ix *index) del(i int) {
	for j := i; ; {
		if j++; j == len(ix.slots) {
			j = 0
		}
		s := &ix.slots[j]
		if len(s.run) == 0 {
			break
		}
		if k := homeOf(s.h, ix.mul, len(ix.slots)); (i < k && k <= j) || (j < i && (i < k || k <= j)) {
			continue
		}
		ix.slots[i], i = *s, j
	}
	ix.slots[i] = slot{}
	ix.n--
}

// carve returns an empty run of capacity n cut from ix.chunk.
func (ix *index) carve(n int) []Row {
	if len(ix.chunk) < n {
		ix.chunk = make([]Row, max(n, chunkRows))
	}
	run := ix.chunk[:0:n]
	ix.chunk = ix.chunk[n:]
	return run
}

// idxAdd keeps existing indexes in sync with a count change of delta on
// row's tuple (row.Count itself is ignored); stored says the tuple was in
// the relation before the change, and only then is its run searched.
// Rows are stored denormalized in runs, so the run entry is rewritten in
// place — in r's own copy of the run, made on the first write if r shares
// it.
func (r *Relation) idxAdd(row Row, delta int64, stored bool) {
	var kbuf [value.KeyScratch]byte
	var vbuf [4]value.Value
	for _, ix := range r.idx {
		key := ix.project(vbuf[:0], row.Tuple)
		h := hashBytes(key.AppendKey(kbuf[:0]))
		i := ix.find(h, key)
		if i < 0 {
			if (ix.n+1)*growDen > len(ix.slots)*growNum {
				ix.resize(max(minCells, 2*len(ix.slots)))
			}
			ix.place(slot{run: append(ix.carve(1), row.WithCount(delta)), h: h})
			continue
		}
		s := &ix.slots[i]
		if s.shared {
			s.run, s.shared = append(ix.carve(len(s.run)+1), s.run...), false
		}
		at := -1
		for j := 0; stored && j < len(s.run); j++ {
			if s.run[j].key == row.key {
				at = j
				break
			}
		}
		// A run's array may hold other runs and outlive it, so a row that
		// leaves — moved or removed — is cleared behind it: the array must
		// not keep a deleted tuple reachable.
		switch old := s.run; {
		case at < 0:
			if s.run = append(old, row.WithCount(delta)); len(old) == cap(old) {
				clear(old)
			}
		case old[at].Count+delta != 0:
			old[at].Count += delta
		default:
			s.run = append(old[:at], old[at+1:]...)
			old[len(s.run)] = Row{}
			if len(s.run) == 0 {
				ix.del(i)
			}
		}
	}
}

// resize re-places every run in a key table of the given length.
func (ix *index) resize(slots int) {
	old := ix.slots
	ix.slots, ix.n = make([]slot, slots), 0
	for _, s := range old {
		if len(s.run) != 0 {
			ix.place(s)
		}
	}
}
