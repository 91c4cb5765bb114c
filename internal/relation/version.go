package relation

import (
	"sync"
	"sync/atomic"
)

// Versioned is an immutable, copy-on-write relation version: the unit
// snapshot publication works with. A version is either a frozen
// *Relation or an overlay chain of frozen deltas above one; either way
// its content never changes after construction, so any number of
// goroutines may read it without synchronization while newer versions
// are derived from it.
//
// Push derives the successor version in O(|delta|) by stacking one more
// overlay link; probes (Count/Has/Lookup) then pay one table probe per
// link. Two triggers keep both costs bounded, and only the second is
// O(|base|):
//
//   - depth: a push that would reach maxChainDepth compacts — the links
//     above the base are folded into one frozen run, O(pending rows), and
//     the base is shared as it is. A pending row is therefore re-copied
//     at most once per maxChainDepth-1 pushes, and delete/re-insert pairs
//     cancel out of the run.
//   - ratio: once the pending rows reach max(minFlattenRows, ¼|base|) the
//     chain is flattened into a new base, which is what keeps publication
//     amortized O(|delta|) per update: the copy is paid for by the rows
//     that forced it. The new base inherits the old one's indexes
//     (cloneIndexed), so readers do not rebuild them.
type Versioned struct {
	rd     Reader      // base itself, or the overlay chain base ⊎ deltas...
	base   *Relation   // the frozen flat relation at the bottom of the chain
	deltas []*Relation // frozen links above base, oldest first (never written after Push)
	pend   int         // delta rows accumulated above base

	// flat caches the fully materialized (frozen) form, built lazily by
	// Flat or eagerly by flattening. Concurrent builders may race to
	// store it; every candidate has identical content, so last-writer-
	// wins is safe.
	flat atomic.Pointer[Relation]
}

const (
	// maxChainDepth bounds per-probe overhead: a reader pays at most
	// this many table probes per Count/Has. A chain that would reach it is
	// compacted to base ⊎ one run; the base is not copied.
	maxChainDepth = 32
	// minFlattenRows keeps small relations from flattening on every
	// push; below this many pending rows a chain is only ever compacted.
	minFlattenRows = 256
)

// NewVersioned freezes r and wraps it as a depth-0 version. The caller
// must own r exclusively (pass a clone of any shared relation) and must
// not mutate it afterwards.
func NewVersioned(r *Relation) *Versioned {
	r.Freeze()
	v := &Versioned{rd: r, base: r}
	v.flat.Store(r)
	return v
}

// Push returns a new version equal to v ⊎ delta, leaving v unchanged.
// delta is copied and frozen, so the caller may keep mutating its
// original — unless it is frozen already, when nobody can and it becomes
// a link of the chain as it is. Cost is O(|delta|), amortized against
// compaction and flattening (see the type comment).
func (v *Versioned) Push(delta *Relation) *Versioned {
	if delta.Empty() {
		return v
	}
	d := delta
	if !d.Frozen() {
		d = delta.Clone()
		d.Freeze()
	}
	rd, base, deltas, pend := v.rd, v.base, v.deltas, v.pend
	if f := v.flat.Load(); f != nil && len(deltas) > 0 {
		// A reader already materialized this version: chain from the
		// flat form and the depth resets for free.
		rd, base, deltas, pend = f, f, nil, 0
	}
	nv := &Versioned{
		rd:   Overlay(rd, d),
		base: base,
		// The full slice expression forces a copy: versions pushed from
		// one parent must not share the slot after its last link.
		deltas: append(deltas[:len(deltas):len(deltas)], d),
		pend:   pend + d.Len(),
	}
	rowsLinked.Add(int64(d.Len()))
	switch {
	case nv.pend >= minFlattenRows && nv.pend*4 >= base.Len():
		return NewVersioned(nv.materialize())
	case len(nv.deltas) >= maxChainDepth:
		return nv.compact()
	}
	return nv
}

// compact folds the links above the base into one frozen run and returns
// base ⊎ run: the same content at depth 1 (depth 0 if everything pending
// cancelled), for O(pending rows) and without touching the base.
func (v *Versioned) compact() *Versioned {
	// Made for every pending row, so that the merges never grow it.
	first := v.deltas[0]
	run := &Relation{arity: first.arity, rows: first.rows.clone(v.pend)}
	for _, d := range v.deltas[1:] {
		run.MergeDelta(d)
	}
	rowsCopied.Add(int64(v.pend))
	run.Freeze()
	if run.Empty() {
		return NewVersioned(v.base)
	}
	return &Versioned{rd: Overlay(v.base, run), base: v.base, deltas: []*Relation{run}, pend: run.Len()}
}

// materialize collapses the chain into a single frozen relation. The
// pending links are first netted in a pooled scratch relation, so the rows
// the result will have can be counted before it is made (the chain's Len
// only bounds that from above) and the new base is allocated once, for the
// larger of that count and the base's: when the relation has not grown its
// cells arrive by one memmove. The base's indexes come with it
// (cloneIndexed) and the fold keeps them in step. Tuples the base holds are
// folded before tuples it does not, so the table never holds more rows than
// it was made for and a flatten cannot double it. Nothing is encoded or hashed.
func (v *Versioned) materialize() *Relation {
	base, n := v.base, v.base.Len()
	run := netRuns.Get().(*Relation)
	run.arity = v.deltas[0].arity
	for _, d := range v.deltas {
		run.MergeDelta(d)
	}
	// nets calls f with every netted row, its hash and its count in base.
	nets := func(f func(row Row, h uint32, was int64)) {
		for _, c := range run.rows.cells {
			f(run.row(c.cell), c.h, countAt(base, c.h, c.key()))
		}
	}
	nets(func(row Row, _ uint32, was int64) {
		if was == 0 {
			n++
		} else if was+row.Count == 0 {
			n--
		}
	})
	f := base.cloneIndexed(max(n, base.Len()))
	for _, held := range [2]bool{true, false} {
		nets(func(row Row, h uint32, was int64) {
			if (was != 0) == held {
				f.addHashed(row, h)
			}
		})
	}
	run.Reset()
	netRuns.Put(run)
	rowsCopied.Add(int64(base.Len() + v.pend))
	f.Freeze()
	return f
}

// netRuns pools materialize's scratch: a flatten every few applies would
// otherwise allocate another quarter of the base to net its links in.
var netRuns = sync.Pool{New: func() any { return New(-1) }}

// Reader returns the version's read view: the cached flat relation if
// one exists, else the overlay chain.
func (v *Versioned) Reader() Reader {
	if f := v.flat.Load(); f != nil {
		return f
	}
	return v.rd
}

// Flat returns the version as a single frozen *Relation, materializing
// and caching it on first use. Full-scan consumers (sorted row dumps,
// explanation queries) use this so repeated scans of one version pay
// the merge cost once.
func (v *Versioned) Flat() *Relation {
	if f := v.flat.Load(); f != nil {
		return f
	}
	f := v.materialize()
	v.flat.Store(f)
	return f
}

// Depth reports the current overlay-chain depth (0 when flat) — an
// observability hook for tests and metrics.
func (v *Versioned) Depth() int { return len(v.deltas) }
