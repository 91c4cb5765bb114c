package ivm

import "ivm/internal/metrics"

type config struct {
	strategy  Strategy
	semantics Semantics
	tracer    metrics.Tracer
	// history is how many commits the history holds (0 = default).
	history int
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

// WithTracer subscribes t to maintenance events as they happen (stratum
// completion, rule evaluations). A nil t leaves tracing off.
func WithTracer(t Tracer) Option { return func(c *config) { c.tracer = t } }

// WithHistory sets how many commits the views' history holds (default
// DefaultHistory): the window ApplyIdempotent dedups against and the
// serving layer replicates, traces and resumes subscriptions from. A key is known until n
// commits have landed after its own; size n above the commits a client's
// longest retry horizon, or a follower's lag, can see.
func WithHistory(n int) Option { return func(c *config) { c.history = n } }

// WithWALRepair lets OpenStore recover past mid-WAL corruption by
// discarding the corrupt record and everything after it; the valid
// prefix is kept and RecoveryInfo.CorruptRecords reports the damage.
// Without this opt-in, OpenStore fails with the corruption error and
// leaves the WAL untouched, because the records behind the damage were
// acknowledged as durable and would otherwise be silently lost.
func WithWALRepair() Option { return func(c *config) { c.walRepair = true } }
