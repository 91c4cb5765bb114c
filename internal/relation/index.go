package relation

import (
	"slices"
	"sync"

	"ivm/internal/value"
)

// index is a hash index over a subset of columns: one flat open-addressing
// table of slots, probed linearly like the row table (table.go), one slot
// per distinct projection. A slot holds the projection's hash and its run,
// the ascending positions of the rows matching it: a run lists its rows in
// the relation's order, whenever the index was built. A probe compares the
// run's first row with the probe values by key identity (== on
// value.Value, which tells apart exactly what the canonical encoding does,
// a float by its bits). A slot is occupied iff its run is non-empty. Once
// built, an index is maintained incrementally: a count change touches
// none, an insert or a delete the runs of its row and of the row a
// swap-remove moves.
type index struct {
	cols  []int
	slots []slot
	n     int     // occupied slots
	chunk []int32 // spare positions the runs of new keys are carved from
	// view holds the rows Lookup returns, run after run in slot order (slot
	// i's are view[at[i]:at[i+1]]), until the next mutation.
	view []Row
	at   []int32
}

type slot struct {
	run []int32
	h   uint32
	// shared marks a run that the frozen relation this index was cloned
	// from still serves to its readers: it is copied before the first write.
	shared bool
}

// A key table made for n keys has ⌈n·4/3⌉ slots; one that grows in place
// doubles when an insert would take it past 4/5 full (E24).
const chunkRuns = 16 // the length of the chunks new keys' runs are cut from

func keySlots(n int) int { return (n*4 + 2) / 3 }

// cloneIndexed is Clone for the successor of a frozen relation, made for
// n rows (r's first n if it has more): the copy also takes every index r has
// built — each key table is copied, the runs, whose positions the copy keeps
// and from which those past n are cut, are shared until written — so merging
// a delta into it maintains those indexes instead of leaving the next reader
// to rebuild them.
func (r *Relation) cloneIndexed(n int) *Relation {
	c := &Relation{arity: r.arity, rows: r.rows.clone(n)}
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	for _, ix := range r.idx {
		slots := slices.Clone(ix.slots)
		for i := range slots {
			slots[i].shared = true
		}
		c.idx = append(c.idx, &index{cols: ix.cols, slots: slots, n: ix.n})
		if n < r.Len() {
			c.idx[len(c.idx)-1].cut(n)
		}
	}
	return c
}

// cut truncates each run before its first position ≥ n (a run ascends),
// in place, shared or not; a run left empty leaves the key table.
func (ix *index) cut(n int) {
	for i := range ix.slots {
		for len(ix.slots[i].run) > 0 && ix.slots[i].run[0] >= int32(n) {
			ix.del(i) // a later slot of the probe run may move here
		}
		k, _ := slices.BinarySearch(ix.slots[i].run, int32(n))
		ix.slots[i].run = ix.slots[i].run[:k]
	}
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
// values, in the relation's order. An index on cols is built on first use
// and kept up to date by subsequent Add/Delete calls. Neither cols nor
// keyVals is retained, so callers may pass buffers they reuse. The
// returned rows are read-only. The first Lookup that finds rows after a
// mutation copies the index's rows out (its view); later ones allocate
// nothing. LookupRun copies nothing.
//
// Lookup is safe to call from concurrent readers (Views.Query and
// session reads probe a pinned version from any number of goroutines
// while the writer evaluates): the lazy builds are guarded by idxMu
// with a read-locked fast path, so concurrent Lookups never race even
// when they trigger the first build. Mutations
// (Add/Delete) must still be externally serialized against readers.
func (r *Relation) Lookup(cols []int, keyVals value.Tuple) []Row {
	ix, i := r.probe(cols, keyVals, keyHash(keyVals))
	if i < 0 {
		return nil
	}
	r.idxMu.RLock()
	view, at := ix.view, ix.at
	r.idxMu.RUnlock()
	if view == nil {
		view, at = r.buildView(ix)
	}
	return view[at[i]:at[i+1]:at[i+1]]
}

// run is LookupRun for a relation; h is keyVals' hash.
func (r *Relation) run(cols []int, keyVals value.Tuple, h uint32) Run {
	if ix, i := r.probe(cols, keyVals, h); i >= 0 {
		return Run{rel: r, pos: ix.slots[i].run}
	}
	return Run{}
}

// probe returns r's index on cols, built if need be, and the slot of the
// run whose projection is keyVals, hashed to h, or -1.
func (r *Relation) probe(cols []int, keyVals value.Tuple, h uint32) (*index, int) {
	r.idxMu.RLock()
	ix := r.index(cols)
	r.idxMu.RUnlock()
	if ix == nil {
		ix = r.buildIndex(cols)
	}
	return ix, ix.find(r, h, keyVals)
}

// keyHash is the hash of t's key.
func keyHash(t value.Tuple) uint32 {
	var buf [value.KeyScratch]byte
	return hashBytes(t.AppendKey(buf[:0]))
}

// buildView copies ix's runs out as rows, unless a concurrent reader got
// there first.
func (r *Relation) buildView(ix *index) ([]Row, []int32) {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if ix.view == nil {
		view, at := make([]Row, 0, r.Len()), make([]int32, len(ix.slots)+1)
		for i, s := range ix.slots {
			at[i] = int32(len(view))
			for _, p := range s.run {
				view = append(view, r.At(int(p)))
			}
		}
		at[len(ix.slots)] = int32(len(view))
		ix.view, ix.at, r.viewed = view, at, true
	}
	return ix.view, ix.at
}

// unview drops every index's view before a mutation makes it stale.
func (r *Relation) unview() {
	if r.viewed {
		for _, ix := range r.idx {
			ix.view, ix.at = nil, nil
		}
		r.viewed = false
	}
}

// unindex drops the indexes readers built on r, a link that has left its
// version chain, so that a history's change set holding r pins none; a
// reader whose version still links r builds again what it probes.
func (r *Relation) unindex() {
	r.idxMu.Lock()
	r.idx, r.viewed = nil, false
	r.idxMu.Unlock()
}

// buildIndex returns the index on cols, building it unless a concurrent
// reader got there first.
func (r *Relation) buildIndex(cols []int) *index {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if ix := r.index(cols); ix != nil {
		return ix
	}
	indexesBuilt.Add(1)
	return r.addIndexLocked(cols)
}

// addIndex builds r's index on cols, which r lacks, uncounted: the index
// of a Stored's net, which stands for its base's. The caller owns r.
func (r *Relation) addIndex(cols []int) *index {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	return r.addIndexLocked(cols)
}

// addIndexLocked builds and keeps r's index on cols (idxMu held). One pass
// over pooled scratch numbers the distinct keys; then the key table is
// made for exactly that many and every run is carved, at its exact
// length, from one []int32: a build makes the same few objects however
// many keys it finds.
func (r *Relation) addIndexLocked(cols []int) *index {
	// The index outlives the call: it must not alias the caller's slice.
	ix := &index{cols: slices.Clone(cols)}
	cells := r.rows.cells
	sc := scratches.Get().(*scratch)
	of, probe := grow(sc.of, len(cells)), grow(sc.probe, keySlots(len(cells)))
	first, hs := sc.first[:0], sc.hs[:0]
	clear(probe)
	var kbuf [value.KeyScratch]byte
	var vbuf [4]value.Value
	for i, c := range cells {
		key := ix.project(vbuf[:0], r.row(c.cell).Tuple)
		h := hashBytes(key.AppendKey(kbuf[:0]))
		j := homeOf(h, len(probe))
		for ; probe[j] != 0; j = (j + 1) % len(probe) {
			if k := probe[j] - 1; hs[k] == h && ix.holds(r.At(int(first[k])).Tuple, key) {
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
	for i := range cells {
		pos[of[i]]++
	}
	for k := 1; k < len(pos); k++ {
		pos[k] += pos[k-1]
	}
	runs := make([]int32, len(cells))
	for i := len(cells) - 1; i >= 0; i-- {
		pos[of[i]]--
		runs[pos[of[i]]] = int32(i)
	}
	ix.slots = make([]slot, keySlots(len(first)))
	for k, h := range hs {
		ix.place(slot{run: runs[pos[k]:pos[k+1]:pos[k+1]], h: h})
	}
	*sc = scratch{of: of, probe: probe, first: first, hs: hs, pos: pos}
	scratches.Put(sc)
	r.idx = append(r.idx, ix)
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
// or -1; r is the relation whose positions the runs hold.
func (ix *index) find(r *Relation, h uint32, key value.Tuple) int {
	if len(ix.slots) == 0 {
		return -1
	}
	for i := homeOf(h, len(ix.slots)); ; {
		s := &ix.slots[i]
		if len(s.run) == 0 {
			return -1
		}
		if s.h == h && ix.holds(r.At(int(s.run[0])).Tuple, key) {
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
	i := homeOf(s.h, len(ix.slots))
	for len(ix.slots[i].run) != 0 {
		if i++; i == len(ix.slots) {
			i = 0
		}
	}
	ix.slots[i] = s
	ix.n++
}

// del empties slot i, moving back the later slots of its run as
// table.unslot does.
func (ix *index) del(i int) {
	for j := i; ; {
		if j++; j == len(ix.slots) {
			j = 0
		}
		s := &ix.slots[j]
		if len(s.run) == 0 {
			break
		}
		if inGap(i, j, homeOf(s.h, len(ix.slots))) {
			continue
		}
		ix.slots[i], i = *s, j
	}
	ix.slots[i] = slot{}
	ix.n--
}

// carve returns an empty run of capacity n cut from ix.chunk.
func (ix *index) carve(n int) []int32 {
	if len(ix.chunk) < n {
		ix.chunk = make([]int32, max(n, chunkRuns))
	}
	run := ix.chunk[:0:n]
	ix.chunk = ix.chunk[n:]
	return run
}

// slotFor returns the slot of t's run, or -1, and its key's hash.
func (ix *index) slotFor(r *Relation, t value.Tuple) (int, uint32) {
	var kbuf [value.KeyScratch]byte
	var vbuf [4]value.Value
	key := ix.project(vbuf[:0], t)
	h := hashBytes(key.AppendKey(kbuf[:0]))
	return ix.find(r, h, key), h
}

// own returns slot i, its run copied (with room for extra) if shared.
func (ix *index) own(i, extra int) *slot {
	s := &ix.slots[i]
	if s.shared {
		s.run, s.shared = append(ix.carve(len(s.run)+extra), s.run...), false
	}
	return s
}

// idxInsert adds position p, the last, where tuple t went in, to every
// index: at the end of its run.
func (r *Relation) idxInsert(t value.Tuple, p int) {
	for _, ix := range r.idx {
		ix.add(r, t, p)
	}
}

// add puts position p, which holds tuple t, in t's run, where it keeps
// the run ascending.
func (ix *index) add(r *Relation, t value.Tuple, p int) {
	i, h := ix.slotFor(r, t)
	if i < 0 {
		if (ix.n+1)*5 > len(ix.slots)*4 {
			ix.resize(max(smallRows, 2*len(ix.slots)))
		}
		i = homeOf(h, len(ix.slots))
		for len(ix.slots[i].run) != 0 {
			if i++; i == len(ix.slots) {
				i = 0
			}
		}
		// An emptied slot of a drained index keeps its array: reuse it.
		run := ix.slots[i].run
		if cap(run) == 0 {
			run = ix.carve(1)
		}
		ix.slots[i] = slot{run: append(run, int32(p)), h: h}
		ix.n++
		return
	}
	s := ix.own(i, 1)
	if at, _ := slices.BinarySearch(s.run, int32(p)); at < len(s.run) {
		s.run = slices.Insert(s.run, at, int32(p))
	} else {
		s.run = append(s.run, int32(p))
	}
}

// drop takes position p, which holds tuple t, out of t's run.
func (ix *index) drop(r *Relation, t value.Tuple, p int) {
	i, _ := ix.slotFor(r, t)
	s := ix.own(i, 0)
	at, _ := slices.BinarySearch(s.run, int32(p))
	if s.run = slices.Delete(s.run, at, at+1); len(s.run) == 0 {
		ix.del(i)
	}
}

// idxDelete takes position p, where tuple t is about to be removed, out of
// every index, and moves the last row, which the swap-remove will put at
// p, to p in its run. The last position is the largest: it ends its run,
// and p goes where it keeps the run ascending.
func (r *Relation) idxDelete(t value.Tuple, p int) {
	last := len(r.rows.cells) - 1
	for _, ix := range r.idx {
		ix.drop(r, t, p)
		if p == last {
			continue
		}
		i, _ := ix.slotFor(r, r.At(last).Tuple)
		s := ix.own(i, 0)
		run := s.run[:len(s.run)-1]
		at, _ := slices.BinarySearch(run, int32(p))
		s.run = slices.Insert(run, at, int32(p))
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
