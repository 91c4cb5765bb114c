package ivm

import "container/list"

// The idempotency window behind ApplyIdempotent (DESIGN.md §13): a
// bounded LRU of key → the version the key's apply committed — the ack,
// not the rows: a window that pinned whole ChangeSets (Δ relations, their
// lazily built indexes, head tuples) was most of a serving node's live
// heap, and a retry only needs to learn that its write landed and where;
// a subscriber resume (?from=) is how to re-read the deltas. The
// counting and DRed algorithms are only correct if every delta is
// applied exactly once — a duplicated ⊎ batch silently corrupts every
// downstream count — so a client that cannot tell "never committed"
// from "committed, ack lost" (a timed-out network apply) retries with
// the same key and is answered from the window instead of re-applied.
//
// The window is consulted and updated only on the maintainer goroutine
// under the write lock, so it needs no locking of its own. Store-bound
// views log each apply's keys inside its WAL record; recovery replays
// them back through recordApplied, so dedup survives crashes exactly as
// far as the WAL does.

// DefaultIdempotencyWindow is the number of distinct idempotency keys
// remembered when WithIdempotencyWindow is not given. The window must
// comfortably exceed the number of applies that can land between a
// client's first attempt and its last retry; past eviction, a retry
// re-applies.
const DefaultIdempotencyWindow = 1024

// MaxIdempotencyKeyLen bounds key length: keys are logged inside every
// WAL record and held in memory for the window's lifetime. The serving
// layer rejects longer Idempotency-Key headers up front with the same
// bound.
const MaxIdempotencyKeyLen = 256

type idemEntry struct {
	key     string
	version uint64
}

// idemWindow is an LRU map of bounded capacity; the zero value is not
// usable, call newIdemWindow.
type idemWindow struct {
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

func newIdemWindow(capacity int) *idemWindow {
	if capacity <= 0 {
		capacity = DefaultIdempotencyWindow
	}
	return &idemWindow{cap: capacity, m: make(map[string]*list.Element), lru: list.New()}
}

// lookup returns the version committed under key, refreshing its LRU
// position.
func (w *idemWindow) lookup(key string) (uint64, bool) {
	el, ok := w.m[key]
	if !ok {
		return 0, false
	}
	w.lru.MoveToFront(el)
	return el.Value.(*idemEntry).version, true
}

// record remembers key → version, evicting the least recently used
// entry when the window is full. Re-recording an existing key refreshes
// it.
func (w *idemWindow) record(key string, version uint64) {
	if el, ok := w.m[key]; ok {
		el.Value.(*idemEntry).version = version
		w.lru.MoveToFront(el)
		return
	}
	for w.lru.Len() >= w.cap {
		oldest := w.lru.Back()
		w.lru.Remove(oldest)
		delete(w.m, oldest.Value.(*idemEntry).key)
	}
	w.m[key] = w.lru.PushFront(&idemEntry{key: key, version: version})
}

func (w *idemWindow) len() int { return w.lru.Len() }
