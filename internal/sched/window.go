package sched

import "sync"

// WindowEntry is one version-stamped item held by a Window.
type WindowEntry[T any] struct {
	Version uint64
	Item    T
}

// Window is a bounded, version-ordered ring of committed items — the
// in-memory tail the replication endpoint streams from. Appends carry
// strictly increasing versions; once the ring is full or over its byte
// budget the oldest entries are evicted, and Bounds reports the exclusive
// low-water mark below which readers must backfill from durable storage
// instead.
//
// A Window is safe for one appender and many concurrent readers.
type Window[T any] struct {
	mu sync.Mutex
	// entries[(start+i)%len] for i in [0,count) are the live entries in
	// version order.
	entries []WindowEntry[T]
	start   int
	count   int
	// coversAfter is the exclusive lower bound of the window: every
	// committed version > coversAfter and <= hi is present. Initially
	// unset (haveBounds false) until Seed or the first Append.
	coversAfter uint64
	hi          uint64
	haveBounds  bool
	closed      bool
	// waitCh is closed and replaced on every Append (and on Close), so
	// readers can block on "anything new" without polling.
	waitCh chan struct{}
	// size and budget bound the retained items by bytes as well as by
	// count; used is the retained items' total size.
	size         func(T) int
	budget, used int
}

// NewWindow returns a Window retaining at most capacity entries
// (minimum 1) whose sizes, as size reports them, sum to at most budget —
// except that the newest entry always stays, whatever its size, so a
// caught-up reader is never sent to backfill for it. A size that is
// always 0 leaves the count as the only bound.
func NewWindow[T any](capacity, budget int, size func(T) int) *Window[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Window[T]{
		entries: make([]WindowEntry[T], capacity),
		waitCh:  make(chan struct{}),
		size:    size,
		budget:  budget,
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
// the total size of the entries the window then holds.
func (w *Window[T]) Append(version uint64, item T) int {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0
	}
	if w.haveBounds && version <= w.hi {
		w.start, w.count, w.used = 0, 0, 0
		w.coversAfter = version - 1
	} else if !w.haveBounds {
		w.coversAfter = version - 1
	}
	w.haveBounds = true
	w.used += w.size(item)
	for w.count == len(w.entries) || (w.count > 0 && w.used > w.budget) {
		// Evict the oldest entry; readers below it must backfill.
		old := &w.entries[w.start]
		w.coversAfter = old.Version
		w.used -= w.size(old.Item)
		*old = WindowEntry[T]{} // let the item go
		w.start = (w.start + 1) % len(w.entries)
		w.count--
	}
	w.entries[(w.start+w.count)%len(w.entries)] = WindowEntry[T]{Version: version, Item: item}
	w.count++
	w.hi = version
	ch, used := w.waitCh, w.used
	w.waitCh = make(chan struct{})
	w.mu.Unlock()
	close(ch)
	return used
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

// WaitCh returns a channel closed at the next Append (or Close).
// Readers that found nothing via Next select on it to sleep until new
// commits arrive.
func (w *Window[T]) WaitCh() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waitCh
}

// Close wakes all waiters and makes further Appends no-ops.
func (w *Window[T]) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	ch := w.waitCh
	w.mu.Unlock()
	close(ch)
}
