// Package server is the network serving layer over ivm.Views: an
// HTTP/JSON front end exposing apply, lock-free reads, snapshot-pinned
// repeatable-read sessions, and a streaming change-subscription
// endpoint that fans committed deltas out to N subscribers with
// per-client bounded buffers and slow-consumer eviction. See DESIGN.md
// §11.
package server

import (
	"sync"
	"sync/atomic"

	"ivm"
	"ivm/internal/metrics"
	"ivm/internal/sched"
)

// Hub fans committed change sets out to subscribers. It drains
// ivm.Views.OnCommit — one event per committed maintenance batch, in
// commit order — encodes the batch once (encode.go) and delivers that
// one encoding to every subscriber whose predicate filter matches, over
// a per-subscriber bounded channel. After publish a commit is its
// version and its bytes: the ring, the buffers and the apply ack all
// hold the same *commit and nothing renders it again.
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
	// ring retains recent published commits so a consumer that reconnects
	// with ?from=<last seen version> can be replayed the events it missed
	// instead of forced to resync, and so an apply's ack is the event its
	// commit already published.
	ring *sched.Window[*commit]

	gActive    *metrics.Gauge
	gRingBytes *metrics.Gauge
	cEvents    *metrics.Counter
	cDelivered *metrics.Counter
	cEvicted   *metrics.Counter
	cResumes   *metrics.Counter
	cResyncs   *metrics.Counter
}

// hubRingEventBytes is the resume ring's byte budget per event of its
// capacity: a count alone lets 10 KB event lines outgrow the views.
const hubRingEventBytes = 4 << 10

// NewHub builds a hub over v, registering its commit hook. The resume
// replay ring holds the newest ringCap events and at most ringCap × 4 KiB
// of their lines (hub_ring_bytes): past that the oldest shed their lines,
// the newest's always stays, and a resume that meets a shed event
// resyncs. Backpressure counters land in reg:
// server_subscribers_active (gauge), server_sub_events_total (committed
// events fanned out), server_sub_delivered_total (per-subscriber
// deliveries), server_sub_evicted_total (slow consumers dropped),
// server_sub_resumes_total (?from= reconnects replayed gaplessly), and
// server_sub_resyncs_total (reconnects refused for having aged out).
func NewHub(v *ivm.Views, reg *metrics.Registry, ringCap int) *Hub {
	h := &Hub{
		subs:       make(map[*Subscriber]struct{}),
		ring:       sched.NewWindow(ringCap, ringCap*hubRingEventBytes, lineBytes, func(*commit) *commit { return nil }, nil),
		gActive:    reg.Gauge("server_subscribers_active"),
		gRingBytes: reg.Gauge("hub_ring_bytes"),
		cEvents:    reg.Counter("server_sub_events_total"),
		cDelivered: reg.Counter("server_sub_delivered_total"),
		cEvicted:   reg.Counter("server_sub_evicted_total"),
		cResumes:   reg.Counter("server_sub_resumes_total"),
		cResyncs:   reg.Counter("server_sub_resyncs_total"),
	}
	// Commit hook before seed: an event landing in between establishes
	// the ring's bounds itself and the seed no-ops (the reverse order
	// could claim coverage over an event the ring never saw).
	v.OnCommit(h.publish)
	h.ring.Seed(v.Snapshot().Version())
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
// returned backlog holds every retained matching event after from, in
// commit order, captured atomically with registration — the caller
// delivers the backlog first and then drains the live channel, and the
// resumed stream is gapless (live events all carry versions above the
// backlog's tail). The backlog is returned as a slice rather than
// pre-loaded into the buffer so a resume can bridge gaps far larger
// than the consumer's buffer: the ring's retention is the only limit.
// resync reports that the gap could not be bridged — events after from
// have aged out of the ring; the caller must tell the consumer to
// re-read state and subscribe afresh. A nil subscriber with resync
// false means the hub has shut down.
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
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, false
	}
	var backlog []*commit
	if resume {
		ca, _, ok := h.ring.Bounds()
		resync := !ok || from < ca
		for after := from; !resync; {
			e, more := h.ring.Next(after)
			if !more {
				break
			}
			if resync = e.Item == nil; !resync && e.Item.kept(s.preds) > 0 {
				backlog = append(backlog, e.Item)
			}
			after = e.Version
		}
		if resync {
			// The ring no longer covers every event after the resume
			// point (it predates the ring, or a shed event lies after it):
			// a replay could silently skip events, which is exactly what
			// resume exists to prevent.
			h.cResyncs.Inc()
			return nil, nil, true
		}
		h.cResumes.Inc()
	}
	h.subs[s] = struct{}{}
	h.gActive.Add(1)
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

// publish runs on the maintainer goroutine for every committed batch:
// the one place a commit is encoded. It holds the hub lock across the
// (non-blocking) deliveries so a concurrent Close never closes a channel
// mid-send.
func (h *Hub) publish(cs *ivm.ChangeSet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	c := encodeCommit(cs)
	if c == nil {
		return // nothing visible changed; subscribers see no event
	}
	h.cEvents.Inc()
	h.gRingBytes.Set(int64(h.ring.Append(c.version, c)))
	for s := range h.subs {
		if c.kept(s.preds) == 0 {
			continue
		}
		select {
		case s.ch <- c:
			h.cDelivered.Inc()
		default:
			// Full buffer: the consumer is slower than the commit rate.
			// Evict it — a closed stream it can detect beats a silent gap.
			h.evictLocked(s)
		}
	}
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

// Ack returns the acknowledgment line of the apply that returned cs.
// Commit handlers run before Apply returns, so a fresh apply's commit is
// already in the ring and its ack is that commit's event line, byte for
// byte; a deduped answer and an apply that changed nothing visible carry
// the version alone.
func (h *Hub) Ack(cs *ivm.ChangeSet, deduped bool) []byte {
	if c := h.commitOf(cs); c != nil {
		return c.line
	}
	return ackLine(cs.Version(), deduped)
}

// commitOf finds the published encoding of cs (nil if cs shows no
// changes). Only a commit the ring has already aged out or shed — more
// versions or bytes than it holds published before this caller got to
// write its ack — or one committed after CloseAll is encoded here.
func (h *Hub) commitOf(cs *ivm.ChangeSet) *commit {
	if cs.Empty() {
		return nil
	}
	if c, _ := h.ring.At(cs.Version()); c != nil {
		return c
	}
	return encodeCommit(cs)
}

// lineBytes is what the ring holds of a commit: its event line.
func lineBytes(c *commit) int {
	if c == nil {
		return 0
	}
	return len(c.line)
}
