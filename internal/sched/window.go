package sched

import "sync"

// WindowEntry is one version-stamped item held by a Window.
type WindowEntry[T any] struct {
	Version uint64
	Item    T
}

// Window is a bounded, version-ordered ring of committed items — the
// in-memory tail the replication endpoint streams from. Appends carry
// strictly increasing versions; once the ring is full the oldest entry
// leaves, and Bounds reports the exclusive low-water mark below which
// readers must backfill from durable storage instead. Over its byte
// budget the ring sheds the oldest items' bytes but keeps the entries, so
// the count alone decides how long an entry stays.
//
// A Window is safe for one appender and many concurrent readers.
type Window[T any] struct {
	mu sync.Mutex
	// entries[(start+i)%len] for i in [0,count) are the live entries in
	// version order; the first shed of them have been shed.
	entries            []WindowEntry[T]
	start, count, shed int
	// coversAfter is the exclusive lower bound of the window: every
	// committed version > coversAfter and <= hi is present. Initially
	// unset (haveBounds false) until Seed or the first Append.
	coversAfter uint64
	hi          uint64
	haveBounds  bool
	// waitCh is closed and replaced on every Append, so readers can block
	// on "anything new" without polling.
	waitCh chan struct{}
	// size, shedItem and budget bound the retained items by bytes; used
	// is the retained items' total size. drop sees each entry that leaves.
	size         func(T) int
	shedItem     func(T) T
	drop         func(WindowEntry[T])
	budget, used int
}

// NewWindow returns a Window retaining the newest capacity entries
// (minimum 1). Their items' sizes, as size reports them, sum to at most
// budget: past it, the oldest entries' items are replaced by what shed
// makes of them, which size must count as 0 — except the newest entry's,
// whatever its size, so a caught-up reader is never sent to backfill for
// it. A shed entry keeps its version and its place; a reader that meets
// one backfills as it would below the window. drop, when not nil, is
// handed every entry as it leaves the window, under the window's lock. A
// size that is always 0 leaves the count as the only bound.
func NewWindow[T any](capacity, budget int, size func(T) int, shed func(T) T, drop func(WindowEntry[T])) *Window[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Window[T]{
		entries:  make([]WindowEntry[T], capacity),
		waitCh:   make(chan struct{}),
		size:     size,
		shedItem: shed,
		drop:     drop,
		budget:   budget,
	}
}

// Seed establishes the window's lower bound at version v without adding
// an entry: "everything up to and including v is already durable
// elsewhere". A no-op once the window has bounds (an Append or an
// earlier Seed), so registering the appender before seeding is safe.
func (w *Window[T]) Seed(v uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.haveBounds {
		return
	}
	w.coversAfter, w.hi, w.haveBounds = v, v, true
}

// Append adds an item committed at version. Versions must advance; an
// append at or below the current high-water mark means the version
// counter restarted (a state reset), so the window clears and restarts
// from the new version rather than serve a spliced history. It returns
// the total size of the items the window then holds.
func (w *Window[T]) Append(version uint64, item T) int {
	w.mu.Lock()
	if w.haveBounds && version <= w.hi {
		for w.count > 0 {
			w.evictLocked()
		}
		w.coversAfter = version - 1
	} else if !w.haveBounds {
		w.coversAfter = version - 1
	}
	w.haveBounds = true
	if w.count == len(w.entries) {
		w.evictLocked()
	}
	w.entries[(w.start+w.count)%len(w.entries)] = WindowEntry[T]{Version: version, Item: item}
	w.count++
	w.hi = version
	w.used += w.size(item)
	for ; w.used > w.budget && w.shed < w.count-1; w.shed++ {
		e := &w.entries[(w.start+w.shed)%len(w.entries)]
		w.used -= w.size(e.Item)
		e.Item = w.shedItem(e.Item)
	}
	ch, used := w.waitCh, w.used
	w.waitCh = make(chan struct{})
	w.mu.Unlock()
	close(ch)
	return used
}

// evictLocked takes the oldest entry out; readers below it must backfill.
func (w *Window[T]) evictLocked() {
	old := &w.entries[w.start]
	w.coversAfter = old.Version
	w.used -= w.size(old.Item)
	if w.drop != nil {
		w.drop(*old)
	}
	*old = WindowEntry[T]{} // let the item go
	w.start = (w.start + 1) % len(w.entries)
	w.count--
	w.shed = max(w.shed-1, 0)
}

// Bounds returns the window's coverage: every committed version in
// (coversAfter, hi] is retrievable via Next. ok is false until the
// window has been seeded or appended to.
func (w *Window[T]) Bounds() (coversAfter, hi uint64, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.coversAfter, w.hi, w.haveBounds
}

// Next returns the oldest entry with Version > after. ok is false when
// no such entry is in the window — either the reader is caught up
// (after >= hi) or it fell below the window (after < coversAfter, in
// which case the caller must backfill; distinguish via Bounds).
func (w *Window[T]) Next(after uint64) (WindowEntry[T], bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.haveBounds || after < w.coversAfter {
		return WindowEntry[T]{}, false
	}
	// Binary search the ring for the first version > after.
	lo, hi := 0, w.count
	for lo < hi {
		mid := (lo + hi) / 2
		if w.entries[(w.start+mid)%len(w.entries)].Version > after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == w.count {
		return WindowEntry[T]{}, false
	}
	return w.entries[(w.start+lo)%len(w.entries)], true
}

// At returns the entry of version v, if the window holds one.
func (w *Window[T]) At(v uint64) (T, bool) {
	e, ok := w.Next(v - 1)
	return e.Item, ok && e.Version == v
}

// WaitCh returns a channel closed at the next Append. Readers that found
// nothing via Next select on it to sleep until new commits arrive.
func (w *Window[T]) WaitCh() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waitCh
}
