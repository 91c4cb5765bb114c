// Package client is the Go client for ivmd, the ivm serving daemon:
// applies, lock-free reads, snapshot-pinned repeatable-read sessions,
// and streaming change subscriptions over plain HTTP/JSON. It depends
// only on the standard library (not on the engine), so it embeds
// cheaply in consumer services.
//
// Applies are retried automatically under an idempotency key (see
// RetryPolicy and ApplyWithKey), so a lost ack never double-applies. An
// ack is the version the apply published; the rows it changed reach
// subscribers, and a subscription resumed after the version before it
// reads them.
// Against a replicated cluster, ReadPool round-robins reads over
// followers with leader fallback, and NewClusterPool discovers the
// topology — leader, followers, fencing epoch — from any seed node's
// /v1/info, re-resolving across failovers (docs/REPLICATION.md).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client talks to one ivmd server. Safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
	stats stats
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:7199"). The optional http.Client configures
// transport-level behavior; nil gets a transport with dial,
// TLS-handshake, and response-header timeouts (so a hung server or
// black-holed connection fails an attempt instead of blocking forever)
// but no overall request timeout — Subscribe streams stay open
// indefinitely, bounded only by their context; only their headers are
// subject to the response-header timeout. If you pass your own
// http.Client, give it no overall Timeout for the same reason.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Transport: defaultTransport()}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, retry: DefaultRetryPolicy}
}

// defaultTransport bounds every phase of a request except reading the
// body, which streaming subscriptions need unbounded.
func defaultTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   10 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		MaxIdleConnsPerHost:   16,
	}
}

// SetRetryPolicy replaces the apply retry policy (DefaultRetryPolicy
// until set). Call before issuing requests; it is not synchronized with
// in-flight calls.
func (c *Client) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// apiError is a non-2xx response decoded from the server.
type apiError struct {
	Status     int
	Message    string
	RetryAfter time.Duration // parsed Retry-After hint (0 = none)
	LeaderURL  string        // Leader-URL header of follower rejections
}

func (e *apiError) Error() string {
	return fmt.Sprintf("ivmd: %s (http %d)", e.Message, e.Status)
}

// errorFromResponse decodes a non-2xx response body into an apiError.
func errorFromResponse(status int, header http.Header, data []byte) *apiError {
	e := &apiError{Status: status, Message: strings.TrimSpace(string(data))}
	var er ErrorResponse
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		e.Message = er.Error
	}
	if secs, err := strconv.Atoi(header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	e.LeaderURL = header.Get("Leader-URL")
	return e
}

// StatusOf returns the HTTP status an error carries (0 when err never
// reached a server response).
func StatusOf(err error) int {
	var apiErr *apiError
	if errors.As(err, &apiErr) {
		return apiErr.Status
	}
	return 0
}

// LeaderURLOf returns the Leader-URL a follower's rejection advertised,
// if err carried one.
func LeaderURLOf(err error) string {
	var apiErr *apiError
	if errors.As(err, &apiErr) {
		return apiErr.LeaderURL
	}
	return ""
}

func (c *Client) do(ctx context.Context, method, path string, query url.Values, body io.Reader, contentType string, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.roundTrip(req, out)
}

// roundTrip executes one prepared request and decodes the response.
func (c *Client) roundTrip(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return errorFromResponse(resp.StatusCode, resp.Header, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Apply submits a delta script (`+link(a,b). -link(b,c).`). On success
// the update is applied to every view — and, for store-bound servers,
// durably logged — and the result names the version in which its
// effects became visible.
//
// Apply is exactly-once under failure: it stamps the request with a
// generated Idempotency-Key and retries transport errors, timeouts, and
// 503s with exponential backoff (see RetryPolicy), so a retry of an
// apply whose ack was lost is answered from the server's dedup window
// instead of applying twice. Use ApplyWithKey to control the key across
// client restarts.
func (c *Client) Apply(ctx context.Context, script string) (*ApplyResult, error) {
	return c.ApplyWithKey(ctx, newIdempotencyKey(), script)
}

// Query matches a goal pattern (`hop(a,X)`) against the current
// published version.
func (c *Client) Query(ctx context.Context, goal string) (*QueryResponse, error) {
	return read[QueryResponse](ctx, c, "", ReadOptions{}, "/v1/query", "goal", goal)
}

// Rows returns the stored rows of a relation at the current version.
func (c *Client) Rows(ctx context.Context, pred string) (*RowsResponse, error) {
	return read[RowsResponse](ctx, c, "", ReadOptions{}, "/v1/rows", "pred", pred)
}

// Count returns the derivation count of a ground goal (`hop(a,c)`).
func (c *Client) Count(ctx context.Context, goal string) (*CountResponse, error) {
	return read[CountResponse](ctx, c, "", ReadOptions{}, "/v1/count", "goal", goal)
}

// Has reports whether a ground goal's tuple is present.
func (c *Client) Has(ctx context.Context, goal string) (bool, error) {
	resp, err := read[CountResponse](ctx, c, "", ReadOptions{}, "/v1/count", "goal", goal)
	if err != nil {
		return false, err
	}
	return resp.Has, nil
}

// Explain enumerates the derivations of a ground view tuple.
func (c *Client) Explain(ctx context.Context, goal string) (*ExplainResponse, error) {
	return read[ExplainResponse](ctx, c, "", ReadOptions{}, "/v1/explain", "goal", goal)
}

// Metrics fetches the server's metrics exposition (`name value` lines:
// the engine's counters plus the server_* serving-layer series).
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, &apiError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(val, "%d", &n); err == nil {
			out[name] = n
		}
	}
	return out, sc.Err()
}

// Info fetches the served views' description, including the node's
// cluster role, fencing epoch, and (on a follower) its leader's URL.
func (c *Client) Info(ctx context.Context) (*Info, error) {
	var out Info
	if err := c.do(ctx, http.MethodGet, "/v1/info", nil, nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Promote asks a follower to take over as the cluster primary at the
// next fencing epoch (POST /v1/promote). The call is idempotent: a node
// that is already primary answers Promoted=false with its current
// epoch. Promote a follower only after checking it has caught up to the
// last acked write — see docs/OPERATIONS.md for the procedure.
func (c *Client) Promote(ctx context.Context) (*PromoteResult, error) {
	var out PromoteResult
	if err := c.do(ctx, http.MethodPost, "/v1/promote", nil, nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BaseURL returns the server base URL this client targets.
func (c *Client) BaseURL() string { return c.base }

// Session is a snapshot-pinned repeatable-read handle: every read
// through it observes exactly Version, no matter how many updates
// commit on the server in between. Sessions expire server-side after a
// TTL of inactivity; Close releases one early.
type Session struct {
	c       *Client
	ID      string
	Version uint64
}

// NewSession pins the server's current version.
func (c *Client) NewSession(ctx context.Context) (*Session, error) {
	var out SessionInfo
	if err := c.do(ctx, http.MethodPost, "/v1/session", nil, nil, "", &out); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: out.ID, Version: out.Version}, nil
}

// Close releases the session server-side.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/session/"+s.ID, nil, nil, "", nil)
}

// Query matches a goal at the pinned version.
func (s *Session) Query(ctx context.Context, goal string) (*QueryResponse, error) {
	return read[QueryResponse](ctx, s.c, s.ID, ReadOptions{}, "/v1/query", "goal", goal)
}

// Rows returns a relation's rows at the pinned version.
func (s *Session) Rows(ctx context.Context, pred string) (*RowsResponse, error) {
	return read[RowsResponse](ctx, s.c, s.ID, ReadOptions{}, "/v1/rows", "pred", pred)
}

// Count returns a ground goal's count at the pinned version.
func (s *Session) Count(ctx context.Context, goal string) (*CountResponse, error) {
	return read[CountResponse](ctx, s.c, s.ID, ReadOptions{}, "/v1/count", "goal", goal)
}

// Explain enumerates derivations at the pinned version.
func (s *Session) Explain(ctx context.Context, goal string) (*ExplainResponse, error) {
	return read[ExplainResponse](ctx, s.c, s.ID, ReadOptions{}, "/v1/explain", "goal", goal)
}

// ReadOptions tune one read request. The zero value reads whatever
// version the server currently publishes.
type ReadOptions struct {
	// MinVersion, when > 0, makes the read bounded-staleness: the server
	// waits (briefly) for its published version to reach MinVersion and
	// answers 412 instead of serving older data. Pass the version an
	// Apply ack carried to get read-your-writes across replication lag;
	// a 412 from a follower carries a Leader-URL header (LeaderURLOf) to
	// redirect to.
	MinVersion uint64
}

// QueryOpts is Query with per-read options.
func (c *Client) QueryOpts(ctx context.Context, goal string, ro ReadOptions) (*QueryResponse, error) {
	return read[QueryResponse](ctx, c, "", ro, "/v1/query", "goal", goal)
}

// RowsOpts is Rows with per-read options.
func (c *Client) RowsOpts(ctx context.Context, pred string, ro ReadOptions) (*RowsResponse, error) {
	return read[RowsResponse](ctx, c, "", ro, "/v1/rows", "pred", pred)
}

// CountOpts is Count with per-read options.
func (c *Client) CountOpts(ctx context.Context, goal string, ro ReadOptions) (*CountResponse, error) {
	return read[CountResponse](ctx, c, "", ro, "/v1/count", "goal", goal)
}

// ExplainOpts is Explain with per-read options.
func (c *Client) ExplainOpts(ctx context.Context, goal string, ro ReadOptions) (*ExplainResponse, error) {
	return read[ExplainResponse](ctx, c, "", ro, "/v1/explain", "goal", goal)
}

// read GETs one of the read routes at a session's pinned version (or the
// current one when session is empty), with the read's options and its one
// argument, and decodes the answer.
func read[T any](ctx context.Context, c *Client, session string, ro ReadOptions, path, param, arg string) (*T, error) {
	q := url.Values{param: {arg}}
	if session != "" {
		q.Set("session", session)
	}
	if ro.MinVersion > 0 {
		q.Set("min_version", strconv.FormatUint(ro.MinVersion, 10))
	}
	var out T
	if err := c.do(ctx, http.MethodGet, path, q, nil, "", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Subscription is a live change stream. Read Events until it closes,
// then consult Err: nil means a clean close (Close called or server
// shutdown), ErrResyncRequired means the stream has a gap the server
// could not bridge, ErrEvicted means an eviction the resume machinery
// could not recover from; anything else is the terminal transport or
// protocol failure.
//
// Disconnects and evictions are resumed automatically: the client
// reconnects with ?from=<last seen version> under its RetryPolicy, the
// server replays the missed events, and consumers observe one gapless
// stream with no duplicate events across the seam.
type Subscription struct {
	events chan Event
	cancel context.CancelFunc

	mu  sync.Mutex
	err error
}

// ErrEvicted reports that the server evicted this subscriber because
// its events backed up past the per-client buffer and a gapless resume
// was not possible: the stream has a gap, so re-read current state and
// resubscribe.
var ErrEvicted = fmt.Errorf("ivmd: subscriber evicted (consumer too slow)")

// ErrResyncRequired reports that the server could not replay the events
// between this subscriber's resume point and now (they aged out of its
// history): the stream has a gap, so re-read current state and
// resubscribe.
var ErrResyncRequired = fmt.Errorf("ivmd: subscription resume point aged out; re-read state and resubscribe")

// Events yields the stream: first a hello event carrying the version
// the subscription started at, then one event per committed batch
// matching the predicate filter.
func (s *Subscription) Events() <-chan Event { return s.events }

// Err returns why the stream ended (nil for a clean close).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Subscription) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Close terminates the subscription.
func (s *Subscription) Close() { s.cancel() }

// Subscribe opens a streaming change subscription for the given
// predicates (none = every predicate). buffer, when > 0, requests a
// smaller server-side buffer than the default (useful in tests; the
// server caps it at its own maximum). The stream ends when ctx is
// canceled, Close is called, the server closes the stream cleanly, the
// gap after an eviction or disconnect cannot be resumed, or reconnects
// exhaust the client's RetryPolicy.
func (c *Client) Subscribe(ctx context.Context, preds []string, buffer int) (*Subscription, error) {
	ctx, cancel := context.WithCancel(ctx)
	// The first connect is synchronous so callers see immediate failures
	// (bad parameters, unreachable server) as a plain error.
	resp, err := c.subscribeOnce(ctx, preds, buffer, 0, false)
	if err != nil {
		cancel()
		return nil, err
	}
	sub := &Subscription{events: make(chan Event), cancel: cancel}
	go sub.run(ctx, c, preds, buffer, resp)
	return sub, nil
}

// subscribeOnce opens one /v1/subscribe connection, resuming after from
// when resume is set.
func (c *Client) subscribeOnce(ctx context.Context, preds []string, buffer int, from uint64, resume bool) (*http.Response, error) {
	q := url.Values{}
	for _, p := range preds {
		q.Add("pred", p)
	}
	if buffer > 0 {
		q.Set("buffer", fmt.Sprint(buffer))
	}
	if resume {
		q.Set("from", fmt.Sprint(from))
	}
	u := c.base + "/v1/subscribe"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		header := resp.Header
		resp.Body.Close()
		return nil, errorFromResponse(resp.StatusCode, header, data)
	}
	return resp, nil
}

// streamEnd is why one subscribe connection stopped yielding events.
type streamEnd int

const (
	endClean   streamEnd = iota // server closed the stream (shutdown)
	endCtx                      // caller's context ended
	endFatal                    // protocol damage or resync; err is set
	endEvicted                  // server evicted us; resumable
	endNetwork                  // transport failure; resumable
)

// run is the subscription's delivery loop: consume a connection, and on
// a resumable end reconnect with ?from=<last seen version> so consumers
// observe one gapless, duplicate-free stream.
func (s *Subscription) run(ctx context.Context, c *Client, preds []string, buffer int, resp *http.Response) {
	defer close(s.events)
	p := c.retry.withDefaults()
	var lastSeen uint64
	resumed := false
	// evictedAt guards against an eviction loop: a second eviction with
	// no progress since the last one means resume cannot help.
	evictedAt, everEvicted := uint64(0), false
	for {
		end, err := s.consume(ctx, resp, &lastSeen, resumed)
		switch end {
		case endClean, endCtx:
			return
		case endFatal:
			s.setErr(err)
			return
		case endEvicted:
			if everEvicted && lastSeen == evictedAt {
				s.setErr(ErrEvicted)
				return
			}
			evictedAt, everEvicted = lastSeen, true
		case endNetwork:
			// resumable
		}
		var lastErr error = err
		next := (*http.Response)(nil)
		for attempt := 1; attempt < p.MaxAttempts; attempt++ {
			if err := sleepCtx(ctx, p.Backoff(attempt, retryAfterOf(lastErr))); err != nil {
				return
			}
			r, err := c.subscribeOnce(ctx, preds, buffer, lastSeen, true)
			if err == nil {
				next = r
				break
			}
			lastErr = err
			if !retryable(err) || ctx.Err() != nil {
				s.setErr(lastErr)
				return
			}
		}
		if next == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("ivmd: subscription reconnect gave up after %d attempts", p.MaxAttempts)
			}
			s.setErr(lastErr)
			return
		}
		resp, resumed = next, true
	}
}

// consume reads one connection's stream, delivering fresh events and
// suppressing replay overlap (events at or below lastSeen) and the
// redundant hello of a resumed connection.
func (s *Subscription) consume(ctx context.Context, resp *http.Response, lastSeen *uint64, resumed bool) (streamEnd, error) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return endFatal, fmt.Errorf("ivmd: decoding event: %w", err)
		}
		switch {
		case ev.Resync:
			return endFatal, ErrResyncRequired
		case ev.Evicted:
			return endEvicted, nil
		case ev.Hello:
			if resumed {
				continue
			}
			// The consumer's baseline: everything at or below the hello
			// version is visible in its initial read, so that is also the
			// stream's first resume point.
			if ev.Version > *lastSeen {
				*lastSeen = ev.Version
			}
		default:
			if ev.Version <= *lastSeen {
				continue // replay overlap after a resume
			}
		}
		select {
		case s.events <- ev:
			if !ev.Hello && ev.Version > *lastSeen {
				*lastSeen = ev.Version
			}
		case <-ctx.Done():
			return endCtx, nil
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return endCtx, nil
		}
		return endNetwork, err
	}
	if ctx.Err() != nil {
		return endCtx, nil
	}
	return endClean, nil
}
