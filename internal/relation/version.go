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
// overlay link; probes (Count/Has/Lookup) then pay one table probe per
// link. A push that would reach maxChainDepth compacts: the links above
// the base are folded into one frozen run, O(pending rows), and the base
// is shared as it is. A pending row is therefore re-copied at most once
// per maxChainDepth-1 pushes, and delete/re-insert pairs cancel out of the
// run. The base is the one its writer last made (Stored.Publish), which
// starts the next chain over it: a version never copies its base.
type Versioned struct {
	rd     Reader      // base itself, or the overlay chain base ⊎ deltas...
	base   *Relation   // the frozen flat relation at the bottom of the chain
	deltas []*Relation // frozen links above base, oldest first (never written after Push)
	pend   int         // delta rows accumulated above base

	// flat caches the fully materialized (frozen) form, built lazily by
	// Flat. Concurrent builders may race to store it; every candidate has
	// identical content, so last-writer-wins is safe.
	flat atomic.Pointer[Relation]
}

const (
	// maxChainDepth bounds per-probe overhead: a reader pays at most
	// this many table probes per Count/Has. A chain that would reach it is
	// compacted to base ⊎ one run; the base is not copied.
	maxChainDepth = 32
	// minFlattenRows keeps small relations from rebasing on every merge:
	// below this many net rows a Stored is never rebased.
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
// compaction (see the type comment).
func (v *Versioned) Push(delta *Relation) *Versioned {
	if delta.Empty() {
		return v
	}
	d := delta
	if !d.Frozen() {
		d = delta.Clone()
		d.Freeze()
	}
	nv := &Versioned{
		rd:   Overlay(v.rd, d),
		base: v.base,
		// The full slice expression forces a copy: versions pushed from
		// one parent must not share the slot after its last link.
		deltas: append(v.deltas[:len(v.deltas):len(v.deltas)], d),
		pend:   v.pend + d.Len(),
	}
	rowsLinked.Add(int64(d.Len()))
	if len(nv.deltas) >= maxChainDepth {
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

// materialize collapses the chain into a single frozen relation, a copy
// of the base with the links merged in, made for every row it may hold.
func (v *Versioned) materialize() *Relation {
	f := &Relation{arity: v.base.arity, rows: v.base.rows.clone(v.base.Len() + v.pend)}
	for _, d := range v.deltas {
		f.MergeDelta(d)
	}
	f.Trim() // made for every row the links may add; kept for the rows it has
	rowsCopied.Add(int64(v.base.Len() + v.pend))
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
// the merge cost once. The copy is the reader's: the next version still
// chains from the base.
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
