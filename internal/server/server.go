package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/datalog"
	"ivm/internal/metrics"
	"ivm/internal/parser"
)

// Options configures a Server. The zero value serves HTTP on a random
// localhost port with the documented defaults.
type Options struct {
	// Addr is the HTTP listen address (default "127.0.0.1:0").
	Addr string
	// RequestTimeout bounds every non-streaming request (default 15s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps apply request bodies (default 4 MiB).
	MaxBodyBytes int64
	// SubscriberBuffer is the default per-subscriber live event buffer; a
	// subscriber that falls this many committed batches behind is
	// evicted (default 256). Clients may request less, never more. How
	// far back a ?from= resume reaches is the views' history's
	// (ivm.WithHistory), not this.
	SubscriberBuffer int
	// SessionTTL is the idle lifetime of a snapshot-pinned session;
	// every read through the session refreshes it (default 5m).
	SessionTTL time.Duration
	// OwnViews makes Shutdown also shut the Views down (drain, then
	// checkpoint + close a bound store). Set by cmd/ivmd, which owns its
	// views; leave false when the views outlive the server.
	OwnViews bool
	// LeaderURL marks this server a replication follower: applies are
	// transparently forwarded to the primary at this URL (preserving the
	// Idempotency-Key), and reads whose ?min_version= wait times out
	// carry a Leader-URL header so clients can redirect. The value is
	// only the initial leader; SetLeaderURL moves it when the follower
	// re-resolves after a failover, and clears it on promotion.
	LeaderURL string
	// Promote, when set on a follower, is invoked by POST /v1/promote:
	// it must stop tailing the old primary and raise the fencing epoch,
	// returning the new epoch this node now leads at. After it returns
	// the server clears its leader URL and serves applies locally.
	Promote func() (uint64, error)
	// ReplHeartbeat is the keepalive cadence of idle /v1/replicate
	// streams (default 500ms). Heartbeats carry the current published
	// version, so an idle follower still tracks lag.
	ReplHeartbeat time.Duration
	// MinVersionWait bounds how long a ?min_version= read waits for the
	// published version to catch up before answering 412 (default 2s).
	MinVersionWait time.Duration
	// ExtraMetrics are appended to the /v1/metrics exposition after the
	// engine and server series — e.g. a follower's replica_* registry.
	ExtraMetrics []*metrics.Registry
	// Logger receives an Info record per lifecycle event, stamped with
	// what /v1/info reports at that moment (version, epoch, leader,
	// role), and a Debug record per served request (nil = silent).
	Logger *slog.Logger
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Addr == "" {
		out.Addr = "127.0.0.1:0"
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 15 * time.Second
	}
	if out.MaxBodyBytes <= 0 {
		out.MaxBodyBytes = 4 << 20
	}
	if out.SubscriberBuffer <= 0 {
		out.SubscriberBuffer = 256
	}
	if out.SessionTTL <= 0 {
		out.SessionTTL = 5 * time.Minute
	}
	if out.ReplHeartbeat <= 0 {
		out.ReplHeartbeat = 500 * time.Millisecond
	}
	if out.MinVersionWait <= 0 {
		out.MinVersionWait = 2 * time.Second
	}
	if out.Logger == nil {
		out.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	return out
}

// Server serves a Views instance over HTTP/JSON: apply, lock-free
// reads, snapshot-pinned sessions, a streaming subscription endpoint,
// and a metrics exposition. See DESIGN.md §11 for the shutdown and
// backpressure contracts.
type Server struct {
	v    *ivm.Views
	opts Options
	hub  *Hub
	sess *sessionTable
	reg  *metrics.Registry

	http   *http.Server
	httpLn net.Listener

	// stop unblocks idle replication streams at shutdown.
	stop     chan struct{}
	stopOnce sync.Once

	// leader is the current leader base URL ("" = this node is the
	// primary). It moves when a follower re-resolves after a failover
	// and clears on promotion, so it is read atomically on every apply.
	leader atomic.Value // string

	// fwd is the HTTP client follower applies are proxied through.
	fwd *http.Client

	// applyWG tracks in-flight applies and forwards so Shutdown can
	// drain them before the replication streams close — an acked apply
	// is always shipped to connected followers. Admission goes through
	// beginApply (Add under mu, gated on draining): once Shutdown has
	// flipped draining and started waiting, no new apply can slip in.
	applyWG sync.WaitGroup

	mu sync.Mutex
	// replStreams tracks each live /v1/replicate stream's shipped
	// version so Shutdown can wait for connected followers to receive
	// the final commits before cutting them off.
	replStreams map[*atomic.Uint64]struct{}
	draining    bool

	cRequests  *metrics.Counter
	cErrors    *metrics.Counter
	cDedups    *metrics.Counter
	cForwarded *metrics.Counter
	cFwdErrors *metrics.Counter
	hRequest   *metrics.Histogram
}

// New builds a server over v. Call Start to begin serving.
func New(v *ivm.Views, opts Options) *Server {
	opts = opts.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		v:           v,
		opts:        opts,
		hub:         NewHub(v, reg),
		sess:        newSessionTable(opts.SessionTTL, reg),
		reg:         reg,
		replStreams: make(map[*atomic.Uint64]struct{}),
		fwd:         &http.Client{Timeout: opts.RequestTimeout},
		cRequests:   reg.Counter("server_requests_total"),
		cErrors:     reg.Counter("server_request_errors_total"),
		cDedups:     reg.Counter("server_apply_dedup_total"),
		cForwarded:  reg.Counter("server_forwarded_total"),
		cFwdErrors:  reg.Counter("server_forward_errors_total"),
		hRequest:    reg.Histogram("server_request_seconds"),
		stop:        make(chan struct{}),
	}
	s.leader.Store(opts.LeaderURL)
	mux := http.NewServeMux()
	timed := func(h http.HandlerFunc) http.Handler {
		inner := http.TimeoutHandler(h, opts.RequestTimeout, `{"error":"request timed out"}`)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// TimeoutHandler writes its 503 body with whatever headers the
			// outer writer already carries — it never sets Content-Type, so
			// clients would misparse the JSON error. Pre-set it here; the
			// success path copies the inner handler's headers over this
			// same key (e.g. the metrics exposition stays text/plain).
			w.Header().Set("Content-Type", "application/json")
			inner.ServeHTTP(w, r)
		})
	}
	mux.Handle("POST /v1/apply", timed(s.handleApply))
	mux.Handle("GET /v1/query", timed(s.handleQuery))
	mux.Handle("GET /v1/rows", timed(s.handleRows))
	mux.Handle("GET /v1/count", timed(s.handleCount))
	mux.Handle("GET /v1/has", timed(s.handleCount))
	mux.Handle("GET /v1/explain", timed(s.handleExplain))
	mux.Handle("GET /v1/metrics", timed(s.handleMetrics))
	mux.Handle("GET /v1/info", timed(s.handleInfo))
	mux.Handle("GET /v1/trace", timed(s.handleTrace))
	mux.Handle("POST /v1/promote", timed(s.handlePromote))
	mux.Handle("POST /v1/session", timed(s.handleSessionCreate))
	mux.Handle("DELETE /v1/session/{id}", timed(s.handleSessionDelete))
	// Streaming: no timeout handler (the response never ends on its
	// own) and no response buffering.
	mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("GET /v1/replicate", s.handleReplicate)
	s.http = &http.Server{
		Handler:           s.logMiddleware(mux),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Start binds the listener and begins serving in the background. The
// bound address is available from Addr once Start returns.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.opts.Addr, err)
	}
	s.httpLn = ln
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.Info("ivmd: http serve", slog.Any("err", err))
		}
	}()
	s.sess.startSweeper()
	s.Info("ivmd: serving HTTP", slog.String("addr", ln.Addr().String()),
		slog.String("strategy", s.v.Strategy().String()), slog.String("semantics", semanticsName(s.v)),
		slog.Int("rules", len(s.v.Program().Rules)))
	return nil
}

// Info writes a lifecycle record stamped with what /v1/info reports at
// this moment: the published version, the fencing epoch, the leader and
// this node's role.
func (s *Server) Info(msg string, attrs ...slog.Attr) {
	role, leader := s.role()
	s.opts.Logger.LogAttrs(context.Background(), slog.LevelInfo, msg, append(attrs,
		slog.Uint64("version", s.v.Snapshot().Version()), slog.Uint64("epoch", s.v.FenceEpoch()),
		slog.String("leader", leader), slog.String("role", role))...)
}

// Addr returns the bound HTTP address (valid after Start).
func (s *Server) Addr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// URL returns the base HTTP URL (valid after Start).
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops the server gracefully:
//
//  1. new streams (subscribe, replicate) are refused, and
//     in-flight applies — including applies this follower is forwarding
//     to its leader — are drained: an Apply that was admitted completes,
//     is durably logged, and its acknowledgment is delivered;
//  2. the update scheduler is drained and connected replication
//     streams are given a bounded grace period to ship the final
//     commits, so an acked apply is never left unshipped by a graceful
//     shutdown;
//  3. subscription and replication streams are closed (so streaming
//     handlers unblock), and the HTTP server stops accepting and
//     drains what remains;
//  4. (with Options.OwnViews) the store is checkpointed and its WAL
//     closed via Views.Shutdown.
//
// The apply drain and forwarding proxy MUST drain before the streams
// close — the reverse order acks applies whose commit records the
// closed streams can no longer ship, which is exactly the write a
// promoted follower would then be missing.
//
// ctx bounds each wait; on expiry remaining connections are cut but the
// views are still drained and synced (a durably-acked apply is never
// lost — at worst its ack is).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.sess.stopSweeper()
	s.Info("ivmd: shutdown: draining applies and forwards")
	waitCtx(ctx, &s.applyWG)
	s.v.Drain()
	s.Info("ivmd: shutdown: waiting for replication streams")
	s.waitReplStreams(ctx)
	s.Info("ivmd: shutdown: closing subscriptions")
	s.hub.CloseAll()
	s.stopOnce.Do(func() { close(s.stop) })
	s.Info("ivmd: shutdown: draining http")
	err := s.http.Shutdown(ctx)
	if s.opts.OwnViews {
		if dir, ok := s.v.Store(); ok {
			s.Info("ivmd: shutdown: checkpointing store", slog.String("dir", dir))
		} else {
			s.Info("ivmd: shutdown: no store to checkpoint")
		}
		if serr := s.v.Shutdown(); serr != nil && err == nil {
			err = serr
		}
	}
	s.Info("ivmd: shutdown complete")
	return err
}

// beginApply admits one apply (or forward) into applyWG, refusing when
// the server is draining. The Add happens under mu, which Shutdown also
// holds while flipping draining — so an admitted apply is always seen
// by the drain's Wait, and a WaitGroup Add can never race a Wait that
// already observed a zero counter.
func (s *Server) beginApply() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.applyWG.Add(1)
	return true
}

// waitCtx waits for wg, giving up when ctx expires.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// replStreamGrace bounds how long Shutdown waits for connected
// followers to receive the final committed version.
const replStreamGrace = 2 * time.Second

// waitReplStreams polls the live replication streams until each has
// shipped everything committed, or the grace period (or ctx) expires.
// Streams register their progress in replStreams; a stream that
// disconnects mid-wait simply drops out of the set.
func (s *Server) waitReplStreams(ctx context.Context) {
	target := s.v.Snapshot().Version()
	deadline := time.Now().Add(replStreamGrace)
	for {
		caughtUp := true
		s.mu.Lock()
		for p := range s.replStreams {
			if p.Load() < target {
				caughtUp = false
				break
			}
		}
		s.mu.Unlock()
		if caughtUp || time.Now().After(deadline) || ctx.Err() != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// logMiddleware counts every request and logs it at Debug level.
func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(lw, r)
		d := time.Since(start)
		s.cRequests.Inc()
		if lw.status >= 400 {
			s.cErrors.Inc()
		}
		s.hRequest.Observe(d)
		s.opts.Logger.LogAttrs(r.Context(), slog.LevelDebug, "ivmd: request",
			slog.String("method", r.Method), slog.String("path", r.URL.Path), slog.Int("status", lw.status),
			slog.Duration("took", d), slog.String("key", r.Header.Get("Idempotency-Key")))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	// Every 503 this server produces — shutdown, ErrStoreClosed, a
	// TimeoutHandler expiry — is retryable by design, so advertise that
	// to clients uniformly here (logMiddleware wraps every route).
	if code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (http.TimeoutHandler does not, but
// the subscribe route bypasses it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeEncoded answers 200 with a JSON document the wire encoder
// already rendered (newline-terminated, like json.Encoder's output).
func writeEncoded(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(doc)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, client.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// LeaderURL returns the leader as this server currently knows it: ""
// when this node is the primary, the primary's base URL on a follower.
func (s *Server) LeaderURL() string {
	u, _ := s.leader.Load().(string)
	return u
}

// SetLeaderURL moves the follower's notion of the leader (the forward
// target and the Leader-URL header). An empty URL makes this server a
// primary — promotion's serving-layer half.
func (s *Server) SetLeaderURL(u string) {
	s.leader.Store(u)
}

// role reports this node's role and its leader ("" on a primary).
func (s *Server) role() (role, leader string) {
	if leader = s.LeaderURL(); leader != "" {
		return "follower", leader
	}
	return "primary", ""
}

// setLeaderHeader advertises the primary on responses a client should
// redirect away from (forwarding failures, min_version timeouts).
func (s *Server) setLeaderHeader(w http.ResponseWriter) {
	if u := s.LeaderURL(); u != "" {
		w.Header().Set("Leader-URL", u)
	}
}

// readerFor resolves the snapshot a read serves: the request's session
// snapshot when ?session= is present (404 on unknown/expired ids), the
// current published version otherwise. A ?min_version= parameter makes the read
// bounded-staleness: the handler waits up to Options.MinVersionWait for
// the published version to reach it, then answers 412 (with a
// Leader-URL header on followers) instead of serving stale data — the
// wait-or-redirect contract read-your-writes across replication lag
// relies on. The bool reports whether a response was already written.
func (s *Server) readerFor(w http.ResponseWriter, r *http.Request) (*ivm.Snapshot, bool) {
	q := r.URL.Query()
	var min uint64
	if ms := q.Get("min_version"); ms != "" {
		n, err := strconv.ParseUint(ms, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid min_version %q", ms)
			return nil, true
		}
		min = n
	}
	if min > 0 && !s.v.WaitForVersion(min, s.opts.MinVersionWait) {
		s.setLeaderHeader(w)
		writeError(w, http.StatusPreconditionFailed,
			"published version %d below min_version %d after %s", s.v.Snapshot().Version(), min, s.opts.MinVersionWait)
		return nil, true
	}
	id := q.Get("session")
	if id == "" {
		return s.v.Snapshot(), false
	}
	sess, ok := s.sess.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired session %q", id)
		return nil, true
	}
	if min > 0 && sess.snap.Version() < min {
		writeError(w, http.StatusPreconditionFailed,
			"session %q pins version %d below min_version %d", id, sess.snap.Version(), min)
		return nil, true
	}
	return sess.snap, false
}

// handleApply applies a delta script. The body is either raw script
// text or JSON {"script": "..."}; the response acknowledges the version
// the batch published, {"version":V}, and nothing else: the rows it
// changed are read by subscribing from V−1. For store-bound views the WAL
// record is fsynced before this handler returns.
//
// An Idempotency-Key header makes the apply exactly-once under retries:
// the first commit under a key is the only one applied, and duplicate
// requests are answered {"version":V,"deduped":true} — the original
// apply's version — instead of re-applying (DESIGN.md §13).
//
// On a follower the apply is transparently forwarded to the leader
// (Idempotency-Key preserved, the leader's version-stamped ack returned
// verbatim); on a primary an X-Ivm-Epoch header from a newer fencing
// epoch means this node was deposed while it was away — the apply is
// refused with 409 rather than split-braining the cluster.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if !s.beginApply() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.applyWG.Done()
	if leader := s.LeaderURL(); leader != "" {
		s.forwardApply(w, r, leader)
		return
	}
	if eh := r.Header.Get("X-Ivm-Epoch"); eh != "" {
		e, err := strconv.ParseUint(eh, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid X-Ivm-Epoch %q", eh)
			return
		}
		if own := s.v.FenceEpoch(); e > own {
			s.reg.Counter("replica_fenced_total").Inc()
			writeError(w, http.StatusConflict,
				"fenced: request carries epoch %d but this node leads epoch %d; it was deposed", e, own)
			return
		}
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "apply body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	script := string(body)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var req struct {
			Script string `json:"script"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding apply request: %v", err)
			return
		}
		script = req.Script
	}
	if strings.TrimSpace(script) == "" {
		writeError(w, http.StatusBadRequest, "empty delta script")
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if len(key) > ivm.MaxIdempotencyKeyLen {
		writeError(w, http.StatusBadRequest, "Idempotency-Key of %d bytes exceeds the %d-byte limit", len(key), ivm.MaxIdempotencyKeyLen)
		return
	}
	u, err := ivm.ParseUpdate(script)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "apply: %v", err)
		return
	}
	cs, deduped, err := s.v.ApplyIdempotent(key, u)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ivm.ErrStoreClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "apply: %v", err)
		return
	}
	if deduped {
		s.cDedups.Inc()
	}
	writeEncoded(w, ackLine(cs.Version(), deduped))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	goal := r.URL.Query().Get("goal")
	if goal == "" {
		writeError(w, http.StatusBadRequest, "missing goal parameter")
		return
	}
	rd, done := s.readerFor(w, r)
	if done {
		return
	}
	results, err := rd.Query(goal)
	if err != nil {
		writeError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	resp := client.QueryResponse{Version: rd.Version(), Results: []client.QueryResult{}}
	for _, qr := range results {
		out := client.QueryResult{Tuple: wireTuple(qr.Row.Tuple), Count: qr.Row.Count}
		if len(qr.Bindings) > 0 {
			out.Bindings = make(map[string]string, len(qr.Bindings))
			for name, val := range qr.Bindings {
				out.Bindings[name] = val.String()
			}
		}
		resp.Results = append(resp.Results, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	pred := r.URL.Query().Get("pred")
	if pred == "" {
		writeError(w, http.StatusBadRequest, "missing pred parameter")
		return
	}
	rd, done := s.readerFor(w, r)
	if done {
		return
	}
	writeEncoded(w, encodeRows(rd.Version(), pred, rd.Rows(pred)))
}

// handleCount serves /v1/count and /v1/has: the goal must be ground
// (every argument a constant).
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	goal := r.URL.Query().Get("goal")
	if goal == "" {
		writeError(w, http.StatusBadRequest, "missing goal parameter")
		return
	}
	pred, vals, err := groundGoal(goal)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rd, done := s.readerFor(w, r)
	if done {
		return
	}
	n := rd.Count(pred, vals...)
	writeJSON(w, http.StatusOK, client.CountResponse{Version: rd.Version(), Count: n, Has: n > 0})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	goal := r.URL.Query().Get("goal")
	if goal == "" {
		writeError(w, http.StatusBadRequest, "missing goal parameter")
		return
	}
	rd, done := s.readerFor(w, r)
	if done {
		return
	}
	ds, err := rd.Explain(goal)
	if err != nil {
		writeError(w, http.StatusBadRequest, "explain: %v", err)
		return
	}
	resp := client.ExplainResponse{Version: rd.Version(), Derivations: []client.Derivation{}}
	for _, d := range ds {
		wd := client.Derivation{Rule: d.Rule, RuleIndex: d.RuleIndex}
		for _, g := range d.Subgoals {
			wd.Subgoals = append(wd.Subgoals, client.Subgoal{
				Pred: g.Pred, Tuple: wireTuple(g.Tuple),
				Negated: g.Negated, Aggregate: g.Aggregate, Count: g.Count,
			})
		}
		resp.Derivations = append(resp.Derivations, wd)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics writes the engine registry's exposition followed by the
// server's own (server_* series), in the shared `name value` format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := s.v.Metrics().WriteTo(w); err != nil {
		return
	}
	if _, err := s.reg.Snapshot().WriteTo(w); err != nil {
		return
	}
	for _, extra := range s.opts.ExtraMetrics {
		if _, err := extra.Snapshot().WriteTo(w); err != nil {
			return
		}
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	snap := s.v.Snapshot()
	info := client.Info{
		Strategy:  s.v.Strategy().String(),
		Semantics: semanticsName(s.v),
		Rules:     len(s.v.Program().Rules),
		Version:   snap.Version(),
		Preds:     snap.Preds(),
		Epoch:     s.v.FenceEpoch(),
	}
	info.Role, info.LeaderURL = s.role()
	if dir, ok := s.v.Store(); ok {
		info.StoreDir = dir
	}
	writeJSON(w, http.StatusOK, info)
}

// handlePromote serves POST /v1/promote: turn this follower into the
// primary at epoch+1. Idempotent — promoting a primary answers 200 with
// Promoted: false. The heavy lifting (stop tailing, raise and persist
// the fencing epoch) happens in Options.Promote, wired by cmd/ivmd to
// the replica's Promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.LeaderURL() == "" {
		writeJSON(w, http.StatusOK, client.PromoteResult{Role: "primary", Epoch: s.v.FenceEpoch()})
		return
	}
	if s.opts.Promote == nil {
		writeError(w, http.StatusNotImplemented, "this follower has no promotion hook")
		return
	}
	epoch, err := s.opts.Promote()
	if err != nil {
		writeError(w, http.StatusConflict, "promote: %v", err)
		return
	}
	s.SetLeaderURL("")
	s.Info("ivmd: promoted to primary")
	writeJSON(w, http.StatusOK, client.PromoteResult{Role: "primary", Epoch: epoch, Promoted: true})
}

func semanticsName(v *ivm.Views) string {
	if v.Semantics() == ivm.DuplicateSemantics {
		return "duplicate"
	}
	return "set"
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	sess := s.sess.create(s.v)
	writeJSON(w, http.StatusOK, client.SessionInfo{
		ID:          sess.id,
		Version:     sess.snap.Version(),
		ExpiresUnix: sess.expires.Unix(),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sess.drop(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown or expired session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleSubscribe streams committed change sets as NDJSON, one
// client.Event per line: a hello carrying the current version, then
// every committed batch matching the ?pred= filters (repeatable; none =
// all) — each a write of bytes the hub encoded once for everyone — until
// the client disconnects, the server shuts down, or the subscriber falls
// behind its buffer and is evicted (final event has "evicted": true).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	q := r.URL.Query()
	buffer := s.opts.SubscriberBuffer
	if bs := q.Get("buffer"); bs != "" {
		n, err := strconv.Atoi(bs)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid buffer %q", bs)
			return
		}
		if n < buffer {
			buffer = n
		}
	}
	// Subscribe before reading the hello version: a commit between the
	// two lands both in the hello version and the event stream (benign
	// overlap) rather than in neither (a gap).
	var sub *Subscriber
	var backlog []*commit
	if fs := q.Get("from"); fs != "" {
		from, err := strconv.ParseUint(fs, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid from %q", fs)
			return
		}
		var resync bool
		sub, backlog, resync = s.hub.SubscribeFrom(q["pred"], buffer, from)
		if resync {
			// The gap cannot be bridged gaplessly: tell the consumer to
			// re-read current state and subscribe afresh.
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			json.NewEncoder(w).Encode(client.Event{Resync: true})
			flusher.Flush()
			return
		}
	} else {
		sub = s.hub.Subscribe(q["pred"], buffer)
	}
	if sub == nil {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.Encode(client.Event{Version: s.v.Snapshot().Version(), Hello: true})
	flusher.Flush()
	// Resume backlog first: these precede (by version) everything the
	// live channel will deliver, so writing them up front keeps the
	// resumed stream gapless and ordered.
	for _, c := range backlog {
		if _, err := w.Write(sub.Line(c)); err != nil {
			return
		}
	}
	if len(backlog) > 0 {
		flusher.Flush()
	}

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case c, ok := <-sub.Events():
			if !ok {
				// Hub shutdown or eviction; tell the client which.
				if sub.Evicted() {
					enc.Encode(client.Event{Evicted: true})
					flusher.Flush()
				}
				return
			}
			if _, err := w.Write(sub.Line(c)); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// wireTuple renders a tuple for the reflectively encoded responses
// (query, explain): one surface-syntax string per value.
func wireTuple(t ivm.Tuple) []string {
	vals := make([]string, len(t))
	for i, v := range t {
		vals[i] = v.String()
	}
	return vals
}

// groundGoal parses a goal and requires it ground, returning the
// predicate and argument values for Count/Has.
func groundGoal(goal string) (string, []any, error) {
	a, err := parser.ParseGoal(goal)
	if err != nil {
		return "", nil, err
	}
	vals := make([]any, len(a.Args))
	for i, t := range a.Args {
		c, ok := t.(datalog.Const)
		if !ok {
			return "", nil, fmt.Errorf("goal must be ground: %s is a variable", t)
		}
		vals[i] = c.Value
	}
	return a.Pred, vals, nil
}
