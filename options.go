package ivm

import (
	"fmt"
	"os"
	"strconv"

	"ivm/internal/eval"
	"ivm/internal/metrics"
)

type config struct {
	strategy        Strategy
	semantics       Semantics
	disableSetOpt   bool
	disablePlanner  bool
	fragmentTuples  bool
	recursiveCounts bool
	maxIterations   int
	// parallelism: parallelismUnset until WithParallelism or the
	// IVM_PARALLELISM environment variable resolves it.
	parallelism int
	tracer      metrics.Tracer
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
	cfg := config{strategy: Auto, semantics: SetSemantics, parallelism: parallelismUnset}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// parallelismUnset marks a config whose parallelism was not chosen
// explicitly; resolution then falls back to IVM_PARALLELISM, and finally
// to sequential evaluation.
const parallelismUnset = -1

// AutoParallelism selects one evaluation worker per available CPU
// (runtime.GOMAXPROCS) when passed to WithParallelism.
const AutoParallelism = 0

// Option configures Materialize.
type Option func(*config)

// WithStrategy forces a maintenance strategy.
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// WithSemantics selects set or duplicate semantics (default: set).
func WithSemantics(s Semantics) Option { return func(c *config) { c.semantics = s } }

// WithoutSetOptimization disables statement (2) of Algorithm 4.1 (the
// set-semantics cascade cut) — exposed for the ablation experiments.
func WithoutSetOptimization() Option { return func(c *config) { c.disableSetOpt = true } }

// WithoutPlanner disables the cost-based join planner; delta rules then
// use the static greedy literal order. Maintained views are bit-identical
// either way — exposed for the planner ablation experiments.
func WithoutPlanner() Option { return func(c *config) { c.disablePlanner = true } }

// WithTupleFragmentation makes the PF baseline propagate one tuple per
// pass (its most fragmented schedule).
func WithTupleFragmentation() Option { return func(c *config) { c.fragmentTuples = true } }

// WithParallelism sets the number of worker goroutines used to evaluate
// the independent delta rules of a stratum (and to hash-partition large
// single-rule joins). n = AutoParallelism (0) uses one worker per
// available CPU; n = 1 evaluates sequentially (the default); negative n
// is treated as AutoParallelism. Maintained views and reported change
// sets are bit-identical at every setting — workers write private
// buffers that are ⊎-merged deterministically.
//
// Without this option, the IVM_PARALLELISM environment variable is
// consulted ("auto" or a number; unset means sequential).
func WithParallelism(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = AutoParallelism
		}
		c.parallelism = n
	}
}

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

// resolveParallelism turns the configured (or environment-supplied)
// parallelism into a concrete worker count. A malformed IVM_PARALLELISM
// value is an error, not a silent fallback to sequential evaluation.
func resolveParallelism(c *config) (int, error) {
	n := c.parallelism
	if n == parallelismUnset {
		env, ok := os.LookupEnv("IVM_PARALLELISM")
		if !ok {
			return 1, nil
		}
		if env == "auto" {
			return eval.Workers(AutoParallelism), nil
		}
		v, err := strconv.Atoi(env)
		if err != nil {
			return 0, fmt.Errorf("ivm: invalid IVM_PARALLELISM value %q (want \"auto\" or an integer)", env)
		}
		n = v
		if n < 0 {
			n = AutoParallelism
		}
	}
	return eval.Workers(n), nil
}

// WithRecursiveCounting lets the counting strategy maintain recursive
// views ([GKM92]; the paper's Section 8). Requires duplicate semantics
// and WithStrategy(Counting): count(t) becomes the number of derivation
// trees, which is finite only on acyclic derivations — materialization
// and updates fail with a divergence error (after maxIterations fixpoint
// rounds; 0 = default) when a derivation cycle appears, leaving the views
// unchanged. Auto keeps selecting DRed for recursive programs, the
// paper's recommendation.
func WithRecursiveCounting(maxIterations int) Option {
	return func(c *config) {
		c.recursiveCounts = true
		c.maxIterations = maxIterations
	}
}
