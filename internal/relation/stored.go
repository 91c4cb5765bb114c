package relation

import (
	"slices"

	"ivm/internal/value"
)

// Stored is a relation its one writer keeps once, beside the versions it
// publishes: a frozen base those versions share, and a private net that
// makes it the writer's current state. Until the base is first published
// the relation is private and every write goes into the base itself.
//
// The state's rows are in place order, which its history fixes as the one
// table's (table.go) does — an insert takes the next place, a delete moves
// the last row into the hole — but for one rule: a row base holds that
// comes back after its delete takes its base place back, if that place is
// below the length, and the row there moves to the end. So a delete undone
// leaves base's rows where base has them, and the net is what changed, not
// the path it took. Place p holds base's row p unless the net says
// otherwise: net holds, with its current count, each row whose place,
// count or tuple differs from base's, pos[i] the place of net row i, at[p]
// 1 + the net row at place p (0: base's row p, if p < n). A base row at no
// place is deleted: its place is at or past n, or another row took it.
//
// Once the net reaches max(minFlattenRows, ¼|base|) rows, the merge that
// took it there folds it into a copy of the base (rebase), which becomes
// the next base: that copy is the only one, made once for the writer and
// the readers alike, and its indexes carry over.
type Stored struct {
	base   *Relation
	net    *Relation
	pos    []int32
	at     []int32
	n      int
	stats  *tableStats // the state's sketches, built on first use
	cols   [][]int     // the column sets the writer has probed, oldest first
	order  []int32     // lookup scratch: a run's net rows in place order
	copied int         // rows rebases copied since the last Publish
	marks  []uint64    // a bit per place, the writer's (Mark)
}

var _ Reader = (*Stored)(nil)

// Store takes r as a writer's relation: private while r is mutable, its
// base — shared as it is — once r is frozen, when the indexes readers
// built on r are not ones the writer has probed.
func Store(r *Relation) *Stored {
	s := &Stored{base: r, net: New(r.Arity())}
	if r.frozen {
		s.share()
		s.cols = nil
	}
	return s
}

// private reports whether writes still go into the unpublished base.
func (s *Stored) private() bool { return !s.base.frozen }

// share starts the net over the just-frozen base: the state is the base,
// and the writer's statistics and probed columns are its.
func (s *Stored) share() {
	s.n = s.base.Len()
	s.base.idxMu.RLock()
	if st := s.base.stats; st != nil {
		st.mu.Lock()
		s.stats = &tableStats{cols: slices.Clone(st.cols)}
		st.mu.Unlock()
	}
	for _, ix := range s.base.idx {
		s.cols = append(s.cols, ix.cols)
	}
	s.base.idxMu.RUnlock()
}

// Publish returns the version of the state after delta, whose version
// before delta was prev (nil: none): prev with delta linked while the base
// is prev's, else a version of the base, frozen now if it was private. A
// base prev does not share is one the writer has just made, and its net
// is empty; prev's links leave the chain, and their indexes with them,
// and the rows its rebase copied are the new version's Copied.
func (s *Stored) Publish(prev *Versioned, delta *Relation) *Versioned {
	if s.private() {
		s.base.Freeze()
		s.share()
	}
	if prev != nil && prev.base == s.base {
		return prev.Push(delta)
	}
	if s.net.Len() > 0 || s.n != s.base.Len() {
		panic("relation: publishing a stored relation whose net the version lacks")
	}
	if prev != nil {
		for _, d := range prev.deltas {
			d.unindex()
		}
	}
	v := NewVersioned(s.base)
	v.copied, v.rebased, s.copied = s.copied, true, 0
	return v
}

// Base returns the relation the net is kept over (while private, the
// state itself): the rows a row that comes back is again.
func (s *Stored) Base() *Relation { return s.base }

// Arity returns the relation's arity (-1 if still unknown).
func (s *Stored) Arity() int {
	if a := s.base.Arity(); a >= 0 {
		return a
	}
	return s.net.Arity()
}

// Len returns the number of rows.
func (s *Stored) Len() int {
	if s.private() {
		return s.base.Len()
	}
	return s.n
}

// Empty reports whether the relation has no rows.
func (s *Stored) Empty() bool { return s.Len() == 0 }

// atp is at[p], 0 past its end.
func (s *Stored) atp(p int) int32 {
	if p < len(s.at) {
		return s.at[p]
	}
	return 0
}

// setAt sets at[p], growing at to p+1.
func (s *Stored) setAt(p int, v int32) {
	if n := len(s.at); p >= n {
		s.at = slices.Grow(s.at, p+1-n)[:p+1]
		clear(s.at[n:])
	}
	s.at[p] = v
}

// locate returns where the row under key k, hashed to h, is: net row i,
// or -1; and q, base's place for k, or -1. Base's row q is the state's
// when kept(q), and then the net lacks k.
func locate[K string | []byte](s *Stored, h uint32, k K) (i, q int) {
	if q = find(s.base, h, k); q >= 0 && s.kept(int32(q)) {
		return -1, q
	}
	if s.net.Len() > 0 {
		return find(s.net, h, k), q
	}
	return -1, q
}

// storedRow returns the row stored under key k, hashed to h (none in a nil
// s). A base row the state has deleted is found at count 0: the tuple a
// row that comes back borrows, to take its base place back (add).
func storedRow[K string | []byte](s *Stored, h uint32, k K) (Row, bool) {
	if s == nil {
		return Row{}, false
	}
	if s.private() {
		return held(s.base, h, k)
	}
	switch i, q := locate(s, h, k); {
	case i >= 0:
		return s.net.At(i), true
	case q >= 0:
		row := s.base.At(q)
		if !s.kept(int32(q)) {
			row.Count = 0
		}
		return row, true
	}
	return Row{}, false
}

func (s *Stored) countHashed(h uint32, kb []byte) int64 {
	row, _ := storedRow(s, h, kb)
	return row.Count
}

// Count returns the stored count for t (0 if absent).
func (s *Stored) Count(t value.Tuple) int64 {
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	return s.countHashed(hashBytes(kb), kb)
}

// Counts appends to dst the count s holds under the key of each row of d,
// in d's order (0 where s lacks it, everywhere in a nil s): one probe a
// row, with the key and hash d's cell carries, so no tuple is encoded and
// no key hashed again.
func (s *Stored) Counts(d *Relation, dst []int64) []int64 {
	rowProbes.Add(int64(d.Len()))
	for _, c := range d.rows.cells {
		row, _ := storedRow(s, c.h, c.key(d.arity))
		dst = append(dst, row.Count)
	}
	return dst
}

// Lend gives each row that d, a Δ for s not yet indexed, inserts and s's
// base holds the base's block, tuple and key: a row that comes back settles.
func (s *Stored) Lend(d *Relation) {
	for i := 0; i < d.Len() && !s.private(); i++ {
		if c := &d.rows.cells[i].cell; c.count > 0 {
			if q := find(s.base, c.h, c.key(d.arity)); q >= 0 {
				c.vals = s.base.rows.cells[q].vals
			}
			rowProbes.Add(1)
		}
	}
}

// Has reports whether t is present with a positive count.
func (s *Stored) Has(t value.Tuple) bool { return s.Count(t) > 0 }

// Stored returns the row stored under the canonical key kb, or base's row
// at count 0 where the state has deleted it: a fold borrows its tuple.
func (s *Stored) Stored(kb []byte) (Row, bool) { return storedRow(s, hashBytes(kb), kb) }

// Place returns the place of t's row if the state holds it at a positive
// count, else -1: one encode, one hash and one probe of the state, counted
// with the Δ rows' probes (RowProbes).
func (s *Stored) Place(t value.Tuple) int {
	rowProbes.Add(1)
	var buf [value.KeyScratch]byte
	kb := t.AppendKey(buf[:0])
	h, p := hashBytes(kb), -1
	if s.private() {
		p = find(s.base, h, kb)
	} else if i, q := locate(s, h, kb); i >= 0 {
		p = int(s.pos[i])
	} else if q >= 0 && s.kept(int32(q)) {
		p = q
	}
	if p < 0 || s.cellAt(p).count <= 0 {
		return -1
	}
	return p
}

// Mark sets the mark of place p < Len() to on and reports whether it was
// set. The marks are the writer's, one bit per place: a DRed stratum marks
// the rows it overestimates and clears each before the state changes.
func (s *Stored) Mark(p int, on bool) bool {
	if p/64 >= len(s.marks) {
		s.marks = append(s.marks, make([]uint64, (s.Len()+63)/64-len(s.marks))...)
	}
	w, b := &s.marks[p/64], uint64(1)<<(p%64)
	was := *w&b != 0
	if *w &^= b; on {
		*w |= b
	}
	return was
}

// Gather returns the rows at the given distinct places, in that order, at
// count, in a table made to size: the state's cells, so no tuple is
// encoded and no key hashed.
func (s *Stored) Gather(places []int32, count int64) *Relation {
	out := NewSized(s.Arity(), len(places))
	for _, p := range places {
		c := *s.cellAt(int(p))
		c.count = count
		out.rows.insert(c)
	}
	return out
}

// cellAt returns the cell of the row at place p < Len().
func (s *Stored) cellAt(p int) *cell {
	if i := s.atp(p); i != 0 {
		return &s.net.rows.cells[i-1].cell
	}
	return &s.base.rows.cells[p].cell
}

// rowAt returns the row at place p < n.
func (s *Stored) rowAt(p int) Row {
	if i := s.atp(p); i != 0 {
		return s.net.At(int(i - 1))
	}
	return s.base.At(p)
}

// Each calls f for every row, in place order.
func (s *Stored) Each(f func(Row)) {
	if s.private() {
		s.base.Each(f)
		return
	}
	for p := range s.n {
		f(s.rowAt(p))
	}
}

// Relation returns the state as one relation, to read: the base itself
// while private, else a copy in place order.
func (s *Stored) Relation() *Relation {
	if s.private() {
		return s.base
	}
	out := NewSized(s.Arity(), s.n)
	for p := range s.n {
		if i := s.atp(p); i != 0 {
			out.rows.insert(s.net.rows.cells[i-1].cell)
		} else {
			out.rows.insert(s.base.rows.cells[p].cell)
		}
	}
	return out
}

// lookup is LookupRun for the state: base's run for keyVals as it is
// while no net row changes it, else the run's rows still at their places
// merged in place order with the net's, built in *buf.
func (s *Stored) lookup(cols []int, keyVals value.Tuple, h uint32, buf *[]Row) Run {
	if s.private() {
		return s.base.run(cols, keyVals, h)
	}
	s.probed(cols)
	b := s.base.run(cols, keyVals, h)
	ord := s.order[:0]
	if s.net.Len() > 0 {
		ix := s.net.index(cols) // the net is the writer's alone: no lock
		if ix == nil {
			ix = s.net.addIndex(cols)
		}
		if i := ix.find(s.net, h, keyVals); i >= 0 {
			ord = append(ord, ix.slots[i].run...)
		}
	}
	whole := len(ord) == 0
	for i := 0; whole && i < len(b.pos); i++ {
		whole = s.kept(b.pos[i])
	}
	if whole {
		return b
	}
	for i := 1; i < len(ord); i++ { // by place: a run's net rows are few
		for j := i; j > 0 && s.pos[ord[j]] < s.pos[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	s.order = ord
	out, j := slices.Grow((*buf)[:0], len(b.pos)+len(ord)), 0
	for _, q := range b.pos {
		if !s.kept(q) {
			continue
		}
		for ; j < len(ord) && s.pos[ord[j]] < q; j++ {
			out = append(out, s.net.At(int(ord[j])))
		}
		out = append(out, s.base.At(int(q)))
	}
	for _, i := range ord[j:] {
		out = append(out, s.net.At(int(i)))
	}
	*buf = out
	return Run{rows: out}
}

// probed notes that the writer has probed cols.
func (s *Stored) probed(cols []int) {
	for _, c := range s.cols {
		if slices.Equal(c, cols) {
			return
		}
	}
	s.cols = append(s.cols, slices.Clone(cols))
}

// kept reports whether base's row q is at its place.
func (s *Stored) kept(q int32) bool { return int(q) < s.n && s.atp(int(q)) == 0 }

// DistinctEst estimates the distinct values of column col, from the same
// sketch a single table with these rows keeps.
func (s *Stored) DistinctEst(col int) int {
	if s.private() {
		return s.base.DistinctEst(col)
	}
	if col < 0 || col >= s.Arity() {
		return s.n
	}
	if s.stats == nil {
		s.stats = &tableStats{cols: make([]colSketch, s.Arity())}
		s.Each(func(row Row) { s.stats.add(row.Tuple, 1) })
	}
	return s.stats.estimate(col, s.n)
}

// PreferredIndex implements IndexPreferrer over the indexes the writer
// has probed — not those readers built on the shared base.
func (s *Stored) PreferredIndex(bound []int) []int {
	if s.private() {
		return s.base.PreferredIndex(bound)
	}
	return preferred(len(s.cols), func(i int) []int { return s.cols[i] }, bound)
}

// MergeDelta folds delta into the state with ⊎, in delta's order, then
// rebases if the net has reached its bound.
func (s *Stored) MergeDelta(delta *Relation) {
	rowProbes.Add(int64(delta.Len()))
	if s.private() {
		s.base.MergeDelta(delta)
		return
	}
	for _, c := range delta.rows.cells {
		if c.count != 0 {
			s.add(delta.row(c.cell), c.h)
		}
	}
	if s.net.Len() >= s.bound() {
		s.rebase()
	}
}

// bound is the net's size at which it is folded into a new base.
func (s *Stored) bound() int { return max(minFlattenRows, (s.base.Len()+3)/4) }

// Keeps reports whether w, a working table its writer reuses, may keep its
// array: while it is within the net's bound.
func (s *Stored) Keeps(w *Relation) bool { return cap(w.rows.cells) <= s.bound() }

// add merges one keyed row, hashed to h, at the place the state's order
// gives it: a row whose count changes keeps its place, a new one takes the
// next, and one that base holds at a place q below the length takes q
// back, moving the row there to the end. A row the net holds leaves it
// where it is base's own row again (settle).
func (s *Stored) add(row Row, h uint32) {
	i, q := locate(s, h, row.key)
	switch {
	case i >= 0:
		c := &s.net.rows.cells[i]
		if c.count += row.Count; c.count == 0 {
			s.remove(int(s.pos[i]))
			return
		}
		s.settle(int(s.pos[i]))
		return
	case q >= 0 && s.kept(int32(q)):
		if now := s.base.rows.cells[q].count + row.Count; now != 0 {
			s.netAt(s.base.At(q).WithCount(now), h, q)
		} else {
			s.remove(q)
		}
		return
	}
	p := s.n
	if q >= 0 && q < s.n { // the row at q, a net row, moves to the end
		j := s.at[q]
		s.pos[j-1] = int32(s.n)
		s.setAt(s.n, j)
		p = q
	}
	s.n++
	s.settle(s.n - 1)
	if s.stats != nil {
		s.stats.add(row.Tuple, 1)
	}
	s.netAt(row, h, p)
	s.settle(p)
}

// settle takes the net row at place p out of the net if it is base's row
// p, tuple and count: the state reads base's row there again.
func (s *Stored) settle(p int) {
	i := int(s.atp(p)) - 1
	if i < 0 || p >= s.base.Len() {
		return
	}
	if c, b := &s.net.rows.cells[i], &s.base.rows.cells[p]; c.vals == b.vals && c.count == b.count {
		s.unnet(i)
	}
}

// netAt puts row, whose key hashes to h, in the net at place p. The net
// grows by doubling up to its bound and by an eighth past it, which only
// the merge that crosses the bound takes it: its array outlives each
// rebase, so a doubling there would be kept for good.
func (s *Stored) netAt(row Row, h uint32, p int) {
	if n := s.net.Len(); n == cap(s.net.rows.cells) {
		grown := min(max(smallRows, 2*n), s.bound())
		if n >= s.bound() {
			grown = n + n/8 + smallRows
		}
		s.net.rows = s.net.rows.clone(grown)
	}
	s.net.insert(row, h)
	s.pos = append(s.pos, int32(p))
	s.setAt(p, int32(s.net.Len()))
}

// unnet takes net row i out of the net, leaving its place to base's row.
func (s *Stored) unnet(i int) {
	s.at[s.pos[i]] = 0
	last := s.net.Len() - 1
	s.net.bump(i, -s.net.rows.cells[i].count)
	if i != last {
		s.pos[i] = s.pos[last]
		s.at[s.pos[i]] = int32(i + 1)
	}
	s.pos = s.pos[:last]
}

// remove deletes the row at place p: the last row moves into its place.
func (s *Stored) remove(p int) {
	if s.stats != nil {
		s.stats.add(s.rowAt(p).Tuple, -1)
	}
	if i := s.atp(p); i != 0 {
		s.unnet(int(i - 1))
	}
	last := s.n - 1
	s.n--
	if p == last {
		return
	}
	if i := s.atp(last); i != 0 {
		s.at[last] = 0
		s.pos[i-1] = int32(p)
		s.setAt(p, i)
		s.settle(p)
		return
	}
	s.netAt(s.base.At(last), s.base.rows.cells[last].h, p)
}

// Cells returns the row cells the tables of the given stored relations and
// versions hold — their capacity, each table counted once however many
// of them share it: a stored relation's base and net, a version's base,
// links and flat form.
func Cells(stored []*Stored, versions []*Versioned) int {
	seen, n := make(map[*Relation]bool), 0
	add := func(r *Relation) {
		if r != nil && !seen[r] {
			seen[r] = true
			n += cap(r.rows.cells)
		}
	}
	for _, s := range stored {
		add(s.base)
		add(s.net)
	}
	for _, v := range versions {
		add(v.base)
		add(v.flat.Load())
		for _, d := range v.deltas {
			add(d)
		}
	}
	return n
}

// rebase folds the net into a copy of the base, which becomes the base:
// row for row the state, in place order, with the base's indexes carried
// over and kept in step. The copy is one table at the state's size, a
// shrunk base's first rows. The net keeps its arrays and indexes, emptied.
func (s *Stored) rebase() {
	nb := s.base.Len()
	t := s.base.cloneIndexed(s.n)
	for i, p := range s.pos {
		if int(p) < nb {
			t.replace(int(p), s.net.rows.cells[i].cell)
		}
	}
	for p := nb; p < s.n; p++ {
		c := s.net.rows.cells[s.at[p]-1].cell
		t.insert(s.net.row(c), c.h)
	}
	copied := min(nb, s.n) + s.net.Len()
	rowsCopied.Add(int64(copied))
	s.copied += copied
	t.Freeze()
	s.base = t
	s.net.drain()
	s.pos, s.at = s.pos[:0], s.at[:0]
}
