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
// link. A push that would reach maxChainDepth compacts by size tiers: the
// two newest links, and each older one no larger than twice what is folded
// so far, are folded into one frozen run; older runs stay links, and the
// base is shared as it is. Run sizes stay geometric, so a pending row is
// re-copied O(log(pend/|delta|)) times before its writer rebases, and
// delete/re-insert pairs cancel out of the run. The base is the one its
// writer last made (Stored.Publish), which starts the next chain over it:
// a version never copies its base.
type Versioned struct {
	rd      Reader      // base itself, or the overlay chain base ⊎ deltas...
	base    *Relation   // the frozen flat relation at the bottom of the chain
	deltas  []*Relation // frozen links above base, oldest first (never written after Push)
	pend    int         // delta rows accumulated above base
	copied  int         // rows the publish that made this version copied
	rebased bool        // whether it made a new base (Stored.Publish), not a link

	// flat caches the fully materialized (frozen) form, built lazily by
	// Flat. Concurrent builders may race to store it; every candidate has
	// identical content, so last-writer-wins is safe.
	flat atomic.Pointer[Relation]
}

const (
	// maxChainDepth bounds per-probe overhead: a reader pays at most
	// this many table probes per Count/Has. A chain that would reach it is
	// compacted by size tiers (compact); the base is not copied.
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

// compact folds the two newest links, and then each older link no larger
// than twice the rows folded so far, into one frozen run: the same content
// at a smaller depth (a run that cancels out is dropped), for O(rows
// folded) and without touching the older links or the base. The folded
// links leave the chain, and their indexes with them.
func (v *Versioned) compact() *Versioned {
	k, folded := len(v.deltas)-2, v.deltas[len(v.deltas)-2].Len()+v.deltas[len(v.deltas)-1].Len()
	for k > 0 && v.deltas[k-1].Len() <= 2*folded {
		k--
		folded += v.deltas[k].Len()
	}
	// Made for every folded row, so that the merges never grow it.
	run := &Relation{arity: v.deltas[k].arity, rows: v.deltas[k].rows.clone(folded)}
	for _, d := range v.deltas[k+1:] {
		run.MergeDelta(d)
	}
	rowsCopied.Add(int64(folded))
	run.Freeze()
	for _, d := range v.deltas[k:] {
		d.unindex()
	}
	nv := &Versioned{rd: v.base, base: v.base, deltas: v.deltas[:k:k], pend: v.pend - folded + run.Len(), copied: folded}
	if !run.Empty() {
		nv.deltas = append(nv.deltas, run)
	}
	for _, d := range nv.deltas {
		nv.rd = Overlay(nv.rd, d)
	}
	if len(nv.deltas) == 0 {
		nv.flat.Store(v.base)
	}
	return nv
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

// Copied reports the rows the publish that made v copied (0 if none), and
// whether v is over another base than the version before it: whether they
// rebased its writer's state into v's base rather than compacted its chain.
func (v *Versioned) Copied() (int, bool) { return v.copied, v.rebased }

// Depth reports the current overlay-chain depth (0 when flat) — an
// observability hook for tests and metrics.
func (v *Versioned) Depth() int { return len(v.deltas) }
