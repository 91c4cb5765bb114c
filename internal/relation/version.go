package relation

import "sync/atomic"

// Versioned is an immutable, copy-on-write relation version: the unit
// snapshot publication works with. A version is either a frozen
// *Relation or an overlay chain of frozen deltas above one; either way
// its content never changes after construction, so any number of
// goroutines may read it without synchronization while newer versions
// are derived from it.
//
// Push derives the successor version in O(|delta|) by stacking one more
// overlay link; probes (Count/Has/Lookup) then pay one map hit per
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
	// this many map hits per Count/Has. A chain that would reach it is
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
	run := fold(v.deltas[0].Clone(), v.deltas[1:])
	if run.Empty() {
		return NewVersioned(v.base)
	}
	return &Versioned{rd: Overlay(v.base, run), base: v.base, deltas: []*Relation{run}, pend: run.Len()}
}

// materialize collapses the chain into a single frozen relation: one
// copy of the flat base at its exact size and with its indexes, then the
// pending deltas folded in by their cached keys, which keeps those indexes
// in step (cloneIndexed). No tuple is encoded, and the map is
// never sized from the chain's Len, which only bounds the row count from
// above (a delete/re-insert workload would keep paying for the slack).
// The copy is O(|base|).
func (v *Versioned) materialize() *Relation {
	return fold(v.base.cloneIndexed(), v.deltas)
}

// fold merges deltas into f, a copy nobody else holds yet, and freezes it.
func fold(f *Relation, deltas []*Relation) *Relation {
	copied := f.Len()
	for _, d := range deltas {
		f.MergeDelta(d)
		copied += d.Len()
	}
	rowsCopied.Add(int64(copied))
	f.Freeze()
	return f
}

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
