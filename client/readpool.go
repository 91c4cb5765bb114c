package client

// ReadPool fans reads out across a leader and its replication
// followers. Reads round-robin over the followers (falling back to the
// leader when a follower is unreachable, still catching up past a
// MinVersion bound, or redirects); applies always go to the leader.
// Combined with ReadOptions.MinVersion carrying the version an apply
// ack returned, the pool gives read-your-writes on top of asynchronous
// replication while follower capacity serves the read volume.
//
// The pool tracks the leader rather than pinning it: NewClusterPool
// discovers the primary from a seed list via /v1/info, and any apply
// rejection that names a Leader-URL (or a dead leader, when seeds are
// known) re-resolves it — after a failover the pool follows the
// promoted follower without reconstruction.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
)

// ReadPool is a leader plus N follower clients. Safe for concurrent
// use.
type ReadPool struct {
	leader   atomic.Pointer[Client]
	replicas []*Client
	hc       *http.Client
	seeds    []string
	next     atomic.Uint64

	fallbacks atomic.Uint64
}

// NewReadPool builds a pool over the leader's URL and any number of
// follower URLs. hc configures the shared transport exactly as in New
// (nil for defaults). With no followers every read goes to the leader.
func NewReadPool(leaderURL string, replicaURLs []string, hc *http.Client) *ReadPool {
	if hc == nil {
		hc = &http.Client{Transport: defaultTransport()}
	}
	p := &ReadPool{hc: hc}
	p.leader.Store(New(leaderURL, hc))
	for _, u := range replicaURLs {
		p.replicas = append(p.replicas, New(u, hc))
	}
	return p
}

// NewClusterPool builds a pool by discovering the cluster from seeds: a
// list of member base URLs, in no particular order and not necessarily
// complete. Each seed's /v1/info is probed; the primary with the
// highest fencing epoch becomes the leader (hopping once through a
// follower's advertised leader_url if no seed is the primary itself)
// and every reachable follower becomes a read target. The pool keeps
// the seed list, so a later failover re-resolves the new leader from
// it. It fails only when no primary is reachable at all.
func NewClusterPool(ctx context.Context, seeds []string, hc *http.Client) (*ReadPool, error) {
	if hc == nil {
		hc = &http.Client{Transport: defaultTransport()}
	}
	leaderURL, followers, err := ProbeLeader(ctx, seeds, hc, 0)
	if err != nil {
		return nil, err
	}
	p := &ReadPool{hc: hc, seeds: seeds}
	p.leader.Store(New(leaderURL, hc))
	for _, u := range followers {
		p.replicas = append(p.replicas, New(u, hc))
	}
	return p, nil
}

// ProbeLeader asks each candidate for /v1/info and returns the cluster's
// leader and the reachable followers. A node whose info names no leader is
// a primary; the leader is the one with the highest fencing epoch at or
// above minEpoch, the earlier candidate on a tie. A follower's advertised
// leader_url is probed too, once, so a candidate list of followers still
// finds their primary. It fails when no such primary is reachable.
func ProbeLeader(ctx context.Context, cands []string, hc *http.Client, minEpoch uint64) (leader string, followers []string, err error) {
	cands = slices.Clone(cands)
	seen := make(map[string]bool, len(cands)+1)
	var leaderEpoch uint64
	var lastErr error
	for i := 0; i < len(cands); i++ {
		u := strings.TrimRight(cands[i], "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		info, err := New(u, hc).Info(ctx)
		switch {
		case err != nil:
			lastErr = err
		case info.LeaderURL != "":
			followers = append(followers, u)
			cands = append(cands, info.LeaderURL)
		case info.Epoch >= minEpoch && (leader == "" || info.Epoch > leaderEpoch):
			leader, leaderEpoch = u, info.Epoch
		}
	}
	if leader == "" {
		if lastErr != nil {
			return "", nil, fmt.Errorf("client: no primary reachable from seeds: %w", lastErr)
		}
		return "", nil, errors.New("client: no primary reachable from seeds")
	}
	return leader, followers, nil
}

// Leader returns the leader's client as the pool currently knows it
// (the target of applies; moves after a failover re-resolution).
func (p *ReadPool) Leader() *Client { return p.leader.Load() }

// Fallbacks reports how many reads a follower could not serve and the
// leader answered instead.
func (p *ReadPool) Fallbacks() uint64 { return p.fallbacks.Load() }

// setLeader retargets the pool at a new leader URL (no-op when it
// already points there).
func (p *ReadPool) setLeader(u string) {
	u = strings.TrimRight(u, "/")
	if u == "" || u == p.Leader().BaseURL() {
		return
	}
	p.leader.Store(New(u, p.hc))
}

// Apply submits a delta script to the leader (exactly-once under
// retries, as in Client.Apply). When the target answers with a
// Leader-URL — it is (or became) a follower, or it was deposed — the
// pool re-resolves the leader and retries there once; when the leader
// is unreachable and the pool was built from seeds, it re-discovers
// the cluster first. The retry reuses Client.Apply's idempotency
// machinery, so the failover retry cannot double-apply.
func (p *ReadPool) Apply(ctx context.Context, script string) (*ApplyResult, error) {
	res, err := p.Leader().Apply(ctx, script)
	if err == nil || ctx.Err() != nil {
		return res, err
	}
	if lu := LeaderURLOf(err); lu != "" {
		p.setLeader(lu)
		return p.Leader().Apply(ctx, script)
	}
	if StatusOf(err) == 0 && len(p.seeds) > 0 {
		if leaderURL, _, derr := ProbeLeader(ctx, p.seeds, p.hc, 0); derr == nil {
			p.setLeader(leaderURL)
			return p.Leader().Apply(ctx, script)
		}
	}
	return res, err
}

// pick selects the next read target round-robin.
func (p *ReadPool) pick() *Client {
	if len(p.replicas) == 0 {
		return p.Leader()
	}
	return p.replicas[p.next.Add(1)%uint64(len(p.replicas))]
}

// fallbackToLeader decides whether a follower's failure should be
// retried on the leader: transport errors (follower down), 503s
// (follower shutting down or still bootstrapping), and 412s (the
// follower timed out waiting for MinVersion — the leader has it by
// definition, since the ack that named the version came from it).
// Context cancellations and data errors (bad goal, unknown predicate)
// would fail identically everywhere, so they surface as-is.
func fallbackToLeader(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	switch StatusOf(err) {
	case 0, http.StatusServiceUnavailable, http.StatusPreconditionFailed:
		return true
	}
	return false
}

// readFallback runs one read through the pool's routing: pick a
// follower, on a retryable failure fall back to the leader (counted),
// and when the leader itself turns out dead or deposed, follow the
// Leader-URL hint — either node's — to the promoted primary and retry
// there. The hint chase retargets the whole pool, so later applies go
// to the right node too.
func readFallback[T any](ctx context.Context, p *ReadPool, do func(c *Client) (T, error)) (T, error) {
	c, lead := p.pick(), p.Leader()
	out, err := do(c)
	if err == nil || c == lead || !fallbackToLeader(err) || ctx.Err() != nil {
		return out, err
	}
	p.fallbacks.Add(1)
	out2, err2 := do(lead)
	if err2 != nil && ctx.Err() == nil {
		// The leader answered with a redirect (it was deposed) or is
		// unreachable while the follower named its replacement.
		hint := LeaderURLOf(err2)
		if hint == "" && StatusOf(err2) == 0 {
			hint = LeaderURLOf(err)
		}
		if hint != "" && strings.TrimRight(hint, "/") != lead.BaseURL() {
			p.setLeader(hint)
			return do(p.Leader())
		}
	}
	return out2, err2
}

// Query reads from a follower, falling back to the leader.
func (p *ReadPool) Query(ctx context.Context, goal string, ro ReadOptions) (*QueryResponse, error) {
	return readFallback(ctx, p, func(c *Client) (*QueryResponse, error) {
		return c.QueryOpts(ctx, goal, ro)
	})
}

// Rows reads from a follower, falling back to the leader.
func (p *ReadPool) Rows(ctx context.Context, pred string, ro ReadOptions) (*RowsResponse, error) {
	return readFallback(ctx, p, func(c *Client) (*RowsResponse, error) {
		return c.RowsOpts(ctx, pred, ro)
	})
}

// Count reads from a follower, falling back to the leader.
func (p *ReadPool) Count(ctx context.Context, goal string, ro ReadOptions) (*CountResponse, error) {
	return readFallback(ctx, p, func(c *Client) (*CountResponse, error) {
		return c.CountOpts(ctx, goal, ro)
	})
}

// Explain reads from a follower, falling back to the leader.
func (p *ReadPool) Explain(ctx context.Context, goal string, ro ReadOptions) (*ExplainResponse, error) {
	return readFallback(ctx, p, func(c *Client) (*ExplainResponse, error) {
		return c.ExplainOpts(ctx, goal, ro)
	})
}
