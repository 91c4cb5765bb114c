package ivm

import "ivm/internal/metrics"

type config struct {
	strategy        Strategy
	semantics       Semantics
	recursiveCounts bool
	maxIterations   int
	tracer          metrics.Tracer
	// groupCommit batches WAL fsyncs for store-bound views (OpenStore).
	groupCommit bool
	// idemWindow is the idempotency-window capacity (0 = default).
	idemWindow int
	// walRepair lets OpenStore discard a corrupt WAL suffix instead of
	// refusing to recover (WithWALRepair).
	walRepair bool
}

// newConfig applies opts over the shared defaults. Every front end
// (Datalog and SQL) must build its config here so defaults cannot drift.
func newConfig(opts []Option) config {
	cfg := config{strategy: Auto, semantics: SetSemantics}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Option configures Materialize.
type Option func(*config)

// WithStrategy forces a maintenance strategy.
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// WithSemantics selects set or duplicate semantics (default: set).
func WithSemantics(s Semantics) Option { return func(c *config) { c.semantics = s } }

// WithTracer subscribes t to maintenance trace events (batch start/end,
// stratum completion, rule evaluations). A nil t leaves tracing off.
func WithTracer(t Tracer) Option { return func(c *config) { c.tracer = t } }

// WithGroupCommit makes a store-bound Views (OpenStore) batch WAL
// fsyncs across concurrent Apply callers: each Apply still returns only
// after its delta is durable, but one fsync can cover many deltas.
// Ignored for views without a store.
func WithGroupCommit() Option { return func(c *config) { c.groupCommit = true } }

// WithIdempotencyWindow sets how many distinct idempotency keys the
// views remember for ApplyIdempotent dedup (default
// DefaultIdempotencyWindow). The window is an LRU: once more than n
// keyed applies land after a key's commit, a retry of that key is no
// longer recognized and re-applies. Size it to comfortably exceed the
// keyed applies that can land within a client's longest retry horizon.
func WithIdempotencyWindow(n int) Option {
	return func(c *config) { c.idemWindow = n }
}

// WithWALRepair lets OpenStore recover past mid-WAL corruption by
// discarding the corrupt record and everything after it; the valid
// prefix is kept and RecoveryInfo.CorruptRecords reports the damage.
// Without this opt-in, OpenStore fails with the corruption error and
// leaves the WAL untouched, because the records behind the damage were
// acknowledged as durable and would otherwise be silently lost.
func WithWALRepair() Option { return func(c *config) { c.walRepair = true } }

// WithRecursiveCounting lets the counting strategy maintain recursive
// views ([GKM92]; the paper's Section 8). Requires duplicate semantics
// and WithStrategy(Counting): count(t) becomes the number of derivation
// trees, which is finite only on acyclic derivations — materialization
// and updates fail with a divergence error (after maxIterations fixpoint
// rounds; 0 = default) when a derivation cycle appears, leaving the views
// unchanged. Auto keeps selecting DRed for recursive strata, the paper's
// recommendation.
func WithRecursiveCounting(maxIterations int) Option {
	return func(c *config) {
		c.recursiveCounts = true
		c.maxIterations = maxIterations
	}
}
