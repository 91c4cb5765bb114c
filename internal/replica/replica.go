// Package replica is the follower half of ivmd replication: it tails a
// primary's /v1/replicate stream and maintains a local Views that
// converges to the primary's state version-for-version.
//
// Protocol (see internal/storage repl.go and DESIGN.md §14): the
// follower connects, bootstraps from the leading 'S' (full state)
// record, then applies 'D' (delta) records in version order. Resumes
// after a disconnect reconnect with ?from=<applied version>; the
// primary replays from its window, backfills from its WAL, or ships a
// fresh 'S'. Overlapping records (version ≤ applied) are skipped —
// re-apply is idempotent by version. A version gap is never skipped
// over: it increments replica_divergence_total and forces a reconnect
// so the primary re-backfills the missing range.
//
// Failover (DESIGN.md §15): every record carries the leader's fencing
// epoch. The follower tracks the highest epoch it has seen and fences
// anything older (replica_fenced_total) — a revived pre-failover
// primary cannot feed it stale deltas. When the upstream dies or
// fences, the follower re-resolves the leader by probing its upstream
// and Options.Seeds via /v1/info, following the highest-epoch primary
// (one hop through a follower's leader_url), and Promote turns this
// follower into the primary at epoch+1.
package replica

import (
	"bufio"
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
	"ivm/internal/metrics"
	"ivm/internal/storage"
)

// Options configures a follower. The zero value is usable.
type Options struct {
	// Retry paces reconnects after a dropped stream and bounds how many
	// consecutive connection failures the follower tolerates before
	// giving up (client.DefaultRetryPolicy when zero; a successful
	// connect resets the count).
	Retry client.RetryPolicy
	// StallTimeout forces a reconnect when the stream delivers nothing —
	// not even a heartbeat — for this long, catching half-dead
	// connections TCP alone would sit on (default 15s).
	StallTimeout time.Duration
	// HTTPClient overrides the transport (nil = dial/header timeouts but
	// no overall request timeout, which the endless stream needs).
	HTTPClient *http.Client
	// ExtraOptions are engine options (tracing, history, ...) applied
	// when materializing the follower's views. Strategy and semantics
	// always follow the primary's — derived state is bit-identical only
	// under the same engine configuration.
	ExtraOptions []ivm.Option
	// Seeds are additional cluster member base URLs probed (besides the
	// current upstream) when the follower re-resolves its leader — after
	// a fence rejection or a dead upstream. Each probe asks /v1/info and
	// the follower adopts the highest-epoch primary at or above its own
	// epoch, hopping once through a follower's advertised leader_url.
	Seeds []string
	// OnLeaderChange fires (from the tail goroutine) whenever the
	// follower re-resolves its upstream to a different URL. The serving
	// layer hooks this to retarget write forwarding.
	OnLeaderChange func(url string)
	// Logger receives an Info record per lifecycle event, stamped with
	// the follower's applied version, epoch and leader (nil = silent).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	// Normalize the retry policy here (client normalizes internally, but
	// its helper is unexported): any unset field takes the default.
	if o.Retry.MaxAttempts < 1 {
		o.Retry.MaxAttempts = client.DefaultRetryPolicy.MaxAttempts
	}
	if o.Retry.BaseDelay <= 0 {
		o.Retry.BaseDelay = client.DefaultRetryPolicy.BaseDelay
	}
	if o.Retry.MaxDelay < o.Retry.BaseDelay {
		o.Retry.MaxDelay = client.DefaultRetryPolicy.MaxDelay
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 15 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
		}}
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	return o
}

// Replica is a running follower. Views() serves lock-free local reads
// while the tail loop applies the primary's commits in the background.
type Replica struct {
	opts  Options
	reg   *metrics.Registry
	v     *ivm.Views
	probe *http.Client // short-timeout client for /v1/info discovery

	applied    atomic.Uint64 // highest version applied locally
	leader     atomic.Uint64 // highest primary version seen on the wire
	epoch      atomic.Uint64 // highest fencing epoch seen (0 = none yet)
	lastRecord atomic.Int64  // unixnano of the last record received

	gLagVersions *metrics.Gauge
	gLagSeconds  *metrics.Gauge
	gApplied     *metrics.Gauge
	cReconnects  *metrics.Counter
	cRecords     *metrics.Counter
	cResets      *metrics.Counter
	cDivergence  *metrics.Counter
	cFenced      *metrics.Counter

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu  sync.Mutex
	url string // current upstream; moves when the leader is re-resolved
	err error
}

// Start connects to the primary at primaryURL, bootstraps the
// follower's views from the leading state record (blocking until the
// local state is live), and launches the tail loop. The returned
// replica keeps converging until Stop, a version divergence, a program
// change, or Options.Retry-many consecutive failed reconnects.
func Start(primaryURL string, opts Options) (*Replica, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := metrics.NewRegistry()
	r := &Replica{
		url:          strings.TrimRight(primaryURL, "/"),
		opts:         opts,
		reg:          reg,
		probe:        &http.Client{Timeout: 2 * time.Second},
		gLagVersions: reg.Gauge("replica_lag_versions"),
		gLagSeconds:  reg.Gauge("replica_lag_seconds"),
		gApplied:     reg.Gauge("replica_applied_version"),
		cReconnects:  reg.Counter("replica_reconnects_total"),
		cRecords:     reg.Counter("replica_records_total"),
		cResets:      reg.Counter("replica_resets_total"),
		cDivergence:  reg.Counter("replica_divergence_total"),
		cFenced:      reg.Counter("replica_fenced_total"),
		ctx:          ctx,
		cancel:       cancel,
		done:         make(chan struct{}),
	}

	// Bootstrap: connect (retrying under the policy) and consume records
	// until the state record arrives, so Start returns a live Views.
	var resp *http.Response
	var br *bufio.Reader
	p := opts.Retry
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, p.Backoff(attempt, 0)); err != nil {
				cancel()
				return nil, fmt.Errorf("replica: bootstrap canceled: %w (last attempt: %v)", err, lastErr)
			}
		}
		if attempt >= p.MaxAttempts {
			cancel()
			return nil, fmt.Errorf("replica: bootstrap gave up after %d attempts: %w", p.MaxAttempts, lastErr)
		}
		rp, b, err := r.connect(0, false)
		if err != nil {
			lastErr = err
			continue
		}
		resp, br = rp, b
		break
	}
	if err := r.bootstrap(br); err != nil {
		resp.Body.Close()
		cancel()
		return nil, err
	}
	r.info("replica: bootstrapped")
	go r.run(resp, br)
	return r, nil
}

// Views returns the follower's local views. Valid (and stable) once
// Start returns; reads are lock-free snapshots exactly as on a primary.
func (r *Replica) Views() *ivm.Views { return r.v }

// Registry returns the follower's replica_* metrics registry, for
// serving alongside the engine and server series.
func (r *Replica) Registry() *metrics.Registry { return r.reg }

// Applied returns the highest primary version applied locally.
func (r *Replica) Applied() uint64 { return r.applied.Load() }

// Epoch returns the highest fencing epoch this follower has seen on the
// wire (at least 1 once bootstrapped).
func (r *Replica) Epoch() uint64 {
	if e := r.epoch.Load(); e != 0 {
		return e
	}
	return 1
}

// LeaderURL returns the upstream this follower currently tails — it
// moves when the leader is re-resolved after a failover.
func (r *Replica) LeaderURL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.url
}

func (r *Replica) setLeaderURL(u string) {
	r.mu.Lock()
	r.url = u
	r.mu.Unlock()
}

// Done is closed when the tail loop exits; Err then reports why (nil
// after a clean Stop).
func (r *Replica) Done() <-chan struct{} { return r.done }

// Err returns the terminal replication error, if any.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Replica) setErr(err error) {
	r.mu.Lock()
	if r.err == nil && err != nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Stop ends replication (in-flight reads through Views keep working;
// the views just stop advancing) and waits for the tail loop to exit.
func (r *Replica) Stop() {
	r.cancel()
	<-r.done
}

// connect opens one replication stream, resuming after from when
// resume is set. The follower's known fencing epoch rides the query
// string: a deposed primary refuses the handshake outright (409)
// instead of streaming records the fence would drop one by one.
func (r *Replica) connect(from uint64, resume bool) (*http.Response, *bufio.Reader, error) {
	u := r.LeaderURL() + "/v1/replicate?epoch=" + strconv.FormatUint(r.Epoch(), 10)
	if resume {
		u += "&from=" + strconv.FormatUint(from, 10)
	}
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := r.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, nil, fmt.Errorf("replica: %s answered %d: %s", u, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	r.lastRecord.Store(time.Now().UnixNano())
	return resp, bufio.NewReader(resp.Body), nil
}

// bootstrap consumes the stream until the leading state record and
// builds the local views from it.
func (r *Replica) bootstrap(br *bufio.Reader) error {
	for {
		rec, err := storage.ReadReplRecord(br)
		if err != nil {
			return fmt.Errorf("replica: reading bootstrap state: %w", err)
		}
		r.lastRecord.Store(time.Now().UnixNano())
		switch rec.Kind {
		case storage.ReplKindHeartbeat:
			continue
		case storage.ReplKindState:
			st, err := storage.DecodeState(rec.State)
			if err != nil {
				return err
			}
			v, err := ivm.ViewsFromReplicaState(st, r.opts.ExtraOptions...)
			if err != nil {
				return fmt.Errorf("replica: building views from state: %w", err)
			}
			r.v = v
			r.admitEpoch(rec) // first record: adopts the leader's epoch
			r.advance(rec)
			return nil
		default:
			return fmt.Errorf("replica: stream led with %q record, want state", rec.Kind)
		}
	}
}

// advance records progress to rec's version and refreshes the lag
// gauges.
func (r *Replica) advance(rec storage.ReplRecord) {
	if rec.Kind != storage.ReplKindHeartbeat {
		r.applied.Store(rec.Version)
		r.gApplied.Set(int64(rec.Version))
	}
	if rec.Version > r.leader.Load() {
		r.leader.Store(rec.Version)
	}
	lag := int64(r.leader.Load()) - int64(r.applied.Load())
	if lag < 0 {
		lag = 0
	}
	r.gLagVersions.Set(lag)
	if rec.UnixNano > 0 {
		ms := (time.Now().UnixNano() - rec.UnixNano) / int64(time.Millisecond)
		if ms < 0 {
			ms = 0
		}
		r.gLagSeconds.Set(ms / 1000)
	}
}

// run is the tail loop: consume the stream, reconnect on retryable
// ends, stop on fatal ones.
func (r *Replica) run(resp *http.Response, br *bufio.Reader) {
	defer close(r.done)
	p := r.opts.Retry
	for {
		err := r.tail(resp, br)
		if r.ctx.Err() != nil {
			return
		}
		if err != nil {
			r.setErr(err)
			r.info("replica: stopping", slog.Any("err", err))
			return
		}
		// Retryable end: re-resolve the leader (the upstream may be dead
		// or deposed), then reconnect from the applied version.
		var lastErr error
		reconnected := false
		for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
			if err := sleepCtx(r.ctx, p.Backoff(attempt, 0)); err != nil {
				return
			}
			r.resolveLeader()
			rp, b, err := r.connect(r.applied.Load(), true)
			if err != nil {
				lastErr = err
				continue
			}
			resp, br = rp, b
			r.cReconnects.Inc()
			reconnected = true
			break
		}
		if !reconnected {
			r.setErr(fmt.Errorf("replica: reconnect gave up after %d attempts: %w", p.MaxAttempts, lastErr))
			r.info("replica: stopping", slog.Any("err", r.Err()))
			return
		}
	}
}

// tail applies one connection's records. A nil return asks run to
// reconnect (stream ended, damaged, stalled, or gapped); an error is
// fatal for the follower.
func (r *Replica) tail(resp *http.Response, br *bufio.Reader) error {
	// Watchdog: a stream that goes silent past StallTimeout (heartbeats
	// included) is force-closed so the blocked read returns.
	stallStop := make(chan struct{})
	defer close(stallStop)
	go func() {
		t := time.NewTimer(r.opts.StallTimeout)
		defer t.Stop()
		for {
			select {
			case <-stallStop:
				return
			case <-r.ctx.Done():
				resp.Body.Close()
				return
			case <-t.C:
				idle := time.Since(time.Unix(0, r.lastRecord.Load()))
				if idle >= r.opts.StallTimeout {
					r.info("replica: stream silent, reconnecting", slog.Duration("idle", idle.Round(time.Millisecond)))
					resp.Body.Close()
					return
				}
				t.Reset(r.opts.StallTimeout - idle)
			}
		}
	}()
	defer resp.Body.Close()

	for {
		rec, err := storage.ReadReplRecord(br)
		if err != nil {
			if err != io.EOF && r.ctx.Err() == nil {
				r.info("replica: stream broke", slog.Any("err", err))
			}
			return nil // reconnect
		}
		r.lastRecord.Store(time.Now().UnixNano())
		r.cRecords.Inc()
		if !r.admitEpoch(rec) {
			// A stale-epoch record: the upstream was deposed while we
			// were connected. Drop the stream; the reconnect path
			// re-resolves the real leader.
			return nil
		}
		switch rec.Kind {
		case storage.ReplKindHeartbeat:
			r.advance(rec)
		case storage.ReplKindState:
			st, err := storage.DecodeState(rec.State)
			if err != nil {
				r.info("replica: bad state record", slog.Any("err", err))
				return nil // reconnect; a fresh stream re-sends it
			}
			if err := r.v.ResetToReplicaState(st); err != nil {
				return fmt.Errorf("replica: applying state reset: %w", err)
			}
			r.cResets.Inc()
			r.advance(rec)
			r.info("replica: state reset")
		case storage.ReplKindDelta:
			applied := r.applied.Load()
			switch {
			case rec.Version <= applied:
				// Overlap after a resume: already applied, skip — the
				// version stamp is the idempotency key.
			case rec.Version == applied+1:
				// The same replay step as crash recovery: the record lands
				// at its stamped version (and enters the history with
				// the primary's keys, so a client retry that lands here
				// after promotion still dedups) or the follower halts.
				if _, err := r.v.ApplyCommitRecord(rec.CommitRecord); err != nil {
					var div *ivm.DivergenceError
					if errors.As(err, &div) {
						r.cDivergence.Inc()
					}
					return fmt.Errorf("replica: applying version %d: %w", rec.Version, err)
				}
				r.advance(rec)
			default:
				// A gap. Never skip over it: reconnect from the applied
				// version and make the primary re-backfill the range.
				r.cDivergence.Inc()
				r.info("replica: gap, re-backfilling", slog.Uint64("record", rec.Version))
				return nil
			}
		}
	}
}

// admitEpoch vets rec against the highest fencing epoch this follower
// has seen. A record from an older epoch is fenced: counted, logged,
// and inadmissible — the caller drops the connection. A record from a
// newer epoch advances the follower's epoch (a promotion happened) and
// mirrors it into the local views, so a later promotion of this
// follower starts above it. Only the tail goroutine calls this, so the
// load/store pair is race-free.
func (r *Replica) admitEpoch(rec storage.ReplRecord) bool {
	known := r.epoch.Load()
	if rec.Epoch < known {
		r.cFenced.Inc()
		r.info("replica: fenced stale record", slog.Uint64("record", rec.Version),
			slog.String("kind", string(rec.Kind)), slog.Uint64("record_epoch", rec.Epoch))
		return false
	}
	if rec.Epoch > known {
		r.epoch.Store(rec.Epoch)
		if r.v != nil {
			r.v.SetFenceEpoch(rec.Epoch)
		}
		if known != 0 {
			r.info("replica: leader epoch moved", slog.Uint64("from", known))
		}
	}
	return true
}

// resolveLeader probes the current upstream and Options.Seeds for the
// cluster's leader via /v1/info and retargets the tail at the
// highest-epoch primary at or above the follower's own epoch. A
// follower answering a probe contributes its advertised leader_url as
// one extra hop. No reachable acceptable primary leaves the upstream
// unchanged (the plain reconnect loop keeps trying it).
func (r *Replica) resolveLeader() {
	cur := r.LeaderURL()
	known := r.Epoch()
	cands := append([]string{cur}, r.opts.Seeds...)
	seen := make(map[string]bool, len(cands)+1)
	var bestURL string
	var bestEpoch uint64
	for i := 0; i < len(cands); i++ {
		u := strings.TrimRight(cands[i], "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		info, err := r.probeInfo(u)
		if err != nil {
			continue
		}
		switch {
		case info.Role == "primary" && info.Epoch >= known && info.Epoch > bestEpoch:
			bestURL, bestEpoch = u, info.Epoch
		case info.Role == "follower" && info.LeaderURL != "":
			cands = append(cands, info.LeaderURL)
		}
	}
	if bestURL != "" && bestURL != cur {
		r.setLeaderURL(bestURL)
		r.info("replica: leader re-resolved", slog.Uint64("leader_epoch", bestEpoch))
		if r.opts.OnLeaderChange != nil {
			r.opts.OnLeaderChange(bestURL)
		}
	}
}

// probeInfo asks one node for its /v1/info with a short timeout.
func (r *Replica) probeInfo(base string) (client.Info, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, base+"/v1/info", nil)
	if err != nil {
		return client.Info{}, err
	}
	resp, err := r.probe.Do(req)
	if err != nil {
		return client.Info{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return client.Info{}, fmt.Errorf("replica: %s/v1/info answered %d", base, resp.StatusCode)
	}
	var info client.Info
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return client.Info{}, err
	}
	return info, nil
}

// Promote turns this follower into a primary: the tail loop is stopped
// (waiting for an in-flight record to finish applying) and the fencing
// epoch is raised one past every epoch this follower has seen — the
// fence that keeps a revived old primary from splitting the brain. The
// serving layer must then clear its leader URL so applies commit
// locally; cmd/ivmd wires both halves to POST /v1/promote. After
// Promote the replica's Done channel is closed with a nil Err.
//
// Promotion does not verify this follower was the most caught-up —
// that is the operator's (or orchestrator's) check, via
// replica_applied_version against the acked writes. See
// docs/OPERATIONS.md.
func (r *Replica) Promote() (uint64, error) {
	r.cancel()
	<-r.done
	epoch := r.v.FenceEpoch()
	if e := r.epoch.Load(); e > epoch {
		epoch = e
	}
	epoch++
	if err := r.v.SetFenceEpoch(epoch); err != nil {
		return 0, err
	}
	r.epoch.Store(epoch)
	r.info("replica: promoted to primary")
	return epoch, nil
}

// info writes a lifecycle record stamped with the follower's applied
// version, its epoch and the upstream it tails. Its records say
// role=follower; after Promote the serving layer's records say primary.
func (r *Replica) info(msg string, attrs ...slog.Attr) {
	r.opts.Logger.LogAttrs(r.ctx, slog.LevelInfo, msg, append(attrs,
		slog.Uint64("version", r.applied.Load()), slog.Uint64("epoch", r.Epoch()),
		slog.String("leader", r.LeaderURL()), slog.String("role", "follower"))...)
}

// sleepCtx waits d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
