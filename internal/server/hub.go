// Package server is the network serving layer over ivm.Views: an
// HTTP/JSON front end exposing apply, lock-free reads, snapshot-pinned
// repeatable-read sessions, and a streaming change-subscription
// endpoint that fans committed deltas out to N subscribers with
// per-client bounded buffers and slow-consumer eviction. See DESIGN.md
// §11.
package server

import (
	"slices"
	"sync"
	"sync/atomic"

	"ivm"
	"ivm/internal/metrics"
	"ivm/internal/sched"
)

// Hub fans committed change sets out to subscribers. It drains
// ivm.Views.OnCommit — one event per committed maintenance batch, in
// commit order — encodes a batch once (encode.go) when a subscriber's
// filter keeps one of its changed predicates, and delivers that one
// encoding to every subscriber whose filter matches, over a
// per-subscriber bounded channel. It keeps no window of its own: a
// subscription resumed after a version reads the commits it missed from
// the views' history, whose entries hold their ChangeSets.
//
// Backpressure policy: the commit path never blocks on a consumer. A
// subscriber whose buffer is full when an event arrives is evicted —
// removed from the hub and its channel closed — rather than silently
// dropping that one event, because a gap in a delta stream is worse
// than a clean break: the consumer knows it must resync (re-read and
// resubscribe) instead of acting on state it silently missed. Fast
// consumers observe every matching ChangeSet version in commit order.
type Hub struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	closed bool
	hist   *sched.Window[ivm.CommitEvent]
	// published is the last version publish saw: a commit enters the
	// history before it is published, so a resume's backlog is the history
	// up to here and live delivery everything after it. Commits at or
	// below skipThrough were in the history when the hub first read it and
	// are published afterwards: every backlog holds them, so publish skips
	// them. A resume from below unbridged resyncs: publish saw that commit
	// outside the history (a replica reset publishes no history entry).
	published, skipThrough, unbridged uint64

	gActive  *metrics.Gauge
	cEvents  *metrics.Counter
	cEvicted *metrics.Counter
	cResumes *metrics.Counter
	cResyncs *metrics.Counter
}

// NewHub builds a hub over v, registering its commit hook and starting
// v's history, which bounds how far back a subscription resumes.
// Backpressure counters land in reg: server_subscribers_active (gauge),
// server_sub_events_total (commits encoded for subscribers),
// server_sub_evicted_total (slow consumers dropped),
// server_sub_resumes_total (?from= reconnects replayed gaplessly), and
// server_sub_resyncs_total (reconnects refused for having aged out).
func NewHub(v *ivm.Views, reg *metrics.Registry) *Hub {
	h := &Hub{
		subs:     make(map[*Subscriber]struct{}),
		hist:     v.History(),
		gActive:  reg.Gauge("server_subscribers_active"),
		cEvents:  reg.Counter("server_sub_events_total"),
		cEvicted: reg.Counter("server_sub_evicted_total"),
		cResumes: reg.Counter("server_sub_resumes_total"),
		cResyncs: reg.Counter("server_sub_resyncs_total"),
	}
	// Commit hook before reading the history: a commit the history holds
	// by then is in every backlog, and every later one is published.
	v.OnCommit(h.publish)
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, hi, _ := h.hist.Bounds(); hi > h.published {
		h.published, h.skipThrough = hi, hi
	}
	return h
}

// Subscriber is one consumer of the hub's event stream. Events() yields
// matching commits in commit order until Close is called, the hub shuts
// down, or the subscriber falls behind and is evicted (Evicted then
// reports true); in every case the channel is closed. Line turns a
// commit into the bytes this subscriber is owed.
type Subscriber struct {
	hub     *Hub
	preds   map[string]bool // nil = every predicate
	ch      chan *commit
	evicted atomic.Bool
	scratch []byte // Line's buffer for a filtered event
}

// Subscribe registers a consumer for the given predicates (none =
// every predicate) with a buffer of cap events. Returns nil if the hub
// has shut down.
func (h *Hub) Subscribe(preds []string, buffer int) *Subscriber {
	sub, _, _ := h.subscribe(preds, buffer, 0, false)
	return sub
}

// SubscribeFrom registers a consumer resuming after version from. The
// returned backlog holds every matching commit after from that the hub
// published before registration, in commit order, encoded from the views'
// history — the caller delivers the backlog first and then drains the
// live channel, which carries every later commit: the resumed stream has
// no gap and no duplicate. The backlog is returned as a slice rather than
// pre-loaded into the buffer so a resume can bridge gaps far larger than
// the consumer's buffer: the history's reach is the only limit. resync
// reports that the gap could not be bridged — from lies below the
// history, a commit after it was shed or replayed there without its rows,
// or one was published outside it; the caller must tell the consumer to
// re-read state and subscribe afresh. A nil subscriber with resync false means the hub has shut down.
func (h *Hub) SubscribeFrom(preds []string, buffer int, from uint64) (sub *Subscriber, backlog []*commit, resync bool) {
	return h.subscribe(preds, buffer, from, true)
}

func (h *Hub) subscribe(preds []string, buffer int, from uint64, resume bool) (*Subscriber, []*commit, bool) {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscriber{hub: h, ch: make(chan *commit, buffer)}
	if len(preds) > 0 {
		s.preds = make(map[string]bool, len(preds))
		for _, p := range preds {
			s.preds[p] = true
		}
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, nil, false
	}
	var missed []*ivm.ChangeSet
	if resume {
		coversAfter, _, _ := h.hist.Bounds()
		resync := from < coversAfter || from < h.unbridged
		for after := from; !resync; {
			e, more := h.hist.Next(after)
			if !more || e.Version > h.published {
				break
			}
			if resync = e.Item.Changes == nil; !resync && s.keepsAny(e.Item.Changes) {
				missed = append(missed, e.Item.Changes)
			}
			after = e.Version
		}
		if resync {
			// The history no longer holds every commit after the resume
			// point: a replay could silently skip one, which is exactly
			// what resume exists to prevent.
			h.cResyncs.Inc()
			h.mu.Unlock()
			return nil, nil, true
		}
		h.cResumes.Inc()
	}
	h.subs[s] = struct{}{}
	h.gActive.Add(1)
	h.mu.Unlock()
	// ChangeSets are immutable: the backlog is encoded without holding up
	// publish.
	var backlog []*commit
	for _, cs := range missed {
		if c := encodeCommit(cs); c != nil && c.kept(s.preds) > 0 {
			backlog = append(backlog, c)
		}
	}
	return s, backlog, false
}

// Events returns the subscriber's delivery channel.
func (s *Subscriber) Events() <-chan *commit { return s.ch }

// Line returns c's NDJSON event line as this subscriber sees it: the
// commit's shared bytes when its filter keeps every changed predicate,
// otherwise the kept fragments assembled into the subscriber's own
// buffer — valid until the next call, so one goroutine per subscriber.
func (s *Subscriber) Line(c *commit) []byte {
	if c.kept(s.preds) == len(c.frags) {
		return c.line
	}
	s.scratch = c.appendEvent(s.scratch[:0], s.preds)
	return s.scratch
}

// Evicted reports whether the hub dropped this subscriber for falling
// behind its buffer (meaningful once Events() is closed).
func (s *Subscriber) Evicted() bool { return s.evicted.Load() }

// Close unsubscribes and closes the event channel. Safe to call
// concurrently with delivery and after eviction (then a no-op).
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; !ok {
		return // already evicted or closed
	}
	delete(h.subs, s)
	h.gActive.Add(-1)
	close(s.ch)
}

// CloseAll shuts the hub down: every subscriber's channel is closed and
// later Subscribe calls return nil. Commit events arriving afterwards
// are discarded unencoded (the commit hook outlives the hub). Used by
// graceful shutdown, before the HTTP server drains, so streaming
// handlers unblock.
func (h *Hub) CloseAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		h.gActive.Add(-1)
		close(s.ch)
	}
}

// publish runs on the maintainer goroutine for every committed batch,
// after the history took it: the one place a commit is encoded, and only
// when a subscriber's filter keeps one of its changed predicates. It
// holds the hub lock across the (non-blocking) deliveries so a concurrent
// Close never closes a channel mid-send.
func (h *Hub) publish(cs *ivm.ChangeSet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || cs.Version() <= h.skipThrough {
		return
	}
	h.published, h.skipThrough = cs.Version(), 0
	if e, ok := h.hist.At(cs.Version()); !ok || e.Changes != cs {
		h.unbridged = cs.Version()
	}
	var c *commit
	for s := range h.subs {
		if c == nil {
			if !s.keepsAny(cs) {
				continue
			}
			if c = encodeCommit(cs); c == nil {
				return // nothing visible changed; subscribers see no event
			}
			h.cEvents.Inc()
		}
		if c.kept(s.preds) == 0 {
			continue
		}
		select {
		case s.ch <- c:
		default:
			// Full buffer: the consumer is slower than the commit rate.
			// Evict it — a closed stream it can detect beats a silent gap.
			h.evictLocked(s)
		}
	}
}

// keepsAny reports whether s's filter keeps a predicate cs changed.
func (s *Subscriber) keepsAny(cs *ivm.ChangeSet) bool {
	if s.preds == nil {
		return !cs.Empty()
	}
	return slices.ContainsFunc(cs.Preds(), func(p string) bool { return s.preds[p] })
}

// evictLocked drops a registered subscriber for falling behind (hub
// lock held): its channel closes with the evicted flag set.
func (h *Hub) evictLocked(s *Subscriber) {
	delete(h.subs, s)
	h.gActive.Add(-1)
	h.cEvicted.Inc()
	s.evicted.Store(true)
	close(s.ch)
}
