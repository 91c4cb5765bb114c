// Package sched implements the batching update scheduler behind
// ivm.Views.Apply: a leader-based combiner in the style of flat
// combining / group commit.
//
// Concurrent callers enqueue requests; the first caller to find no
// leader active becomes the maintainer and drains the queue in batches,
// so every batch the processor sees is exactly the set of requests that
// arrived while the previous batch was being maintained. The views
// commit each request of a batch on its own, in arrival order, and share
// what a batch can: one WAL fsync covers all of its records. With a
// single caller every batch has size one and the behavior is
// indistinguishable from direct application.
//
// Using the caller's goroutine as the maintainer (instead of a
// dedicated background goroutine) means an idle Views costs nothing and
// needs no lifecycle management: there is no goroutine to leak, stop,
// or flush on Close.
package sched

import "sync"

// Combiner hands batches of queued requests to a single processor at a
// time. The zero value is not usable; call New.
type Combiner[R any] struct {
	process func(batch []R)

	mu      sync.Mutex
	idle    sync.Cond // signaled when queue empties and no leader runs
	queue   []R
	leading bool
}

// New returns a combiner that calls process for every drained batch.
// process runs on one goroutine at a time (never concurrently with
// itself) and must complete every request in the batch — typically by
// fulfilling a promise carried inside R — because followers block until
// their request is completed, not until process returns.
func New[R any](process func(batch []R)) *Combiner[R] {
	c := &Combiner[R]{process: process}
	c.idle.L = &c.mu
	return c
}

// Quiesce blocks until the combiner is idle: the queue is empty and no
// leader is processing a batch. Every request submitted before Quiesce
// was called has been completed when it returns. Requests submitted
// concurrently with or after Quiesce may or may not be covered — the
// caller is responsible for stopping producers first (the graceful-
// shutdown discipline: stop accepting work, then Quiesce, then sync).
func (c *Combiner[R]) Quiesce() {
	c.mu.Lock()
	for c.leading || len(c.queue) > 0 {
		c.idle.Wait()
	}
	c.mu.Unlock()
}

// Submit enqueues r. If a leader is already draining the queue, Submit
// returns immediately (the request will be picked up in a later batch
// and completed by the leader); otherwise the calling goroutine becomes
// the leader and processes batches until the queue is empty — its own
// request is part of the first batch. Returns true if the caller led.
func (c *Combiner[R]) Submit(r R) bool {
	c.mu.Lock()
	c.queue = append(c.queue, r)
	if c.leading {
		c.mu.Unlock()
		return false
	}
	c.leading = true
	for len(c.queue) > 0 {
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()
		c.process(batch)
		c.mu.Lock()
	}
	c.leading = false
	c.idle.Broadcast()
	c.mu.Unlock()
	return true
}
