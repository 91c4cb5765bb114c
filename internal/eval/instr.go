package eval

import "ivm/internal/metrics"

// Instruments bundles the low-level evaluation instruments an engine
// resolves once from its metrics registry and threads through rule
// evaluation. All instruments are atomic: Views.Metrics() reads them
// while the writer evaluates. A nil *Instruments disables collection
// entirely (one nil check per evaluation, none per probe).
type Instruments struct {
	// JoinProbes counts keyed relation accesses performed by joins: one
	// per point lookup, index lookup, or negation filter check.
	JoinProbes *metrics.Counter
	// JoinScans counts full-relation enumerations of join-mode literals
	// (no usable bound column). Kept separate from JoinProbes so the
	// planner's cost feedback distinguishes keyed accesses from scans.
	JoinScans *metrics.Counter
	// Derived rows a tuple was allocated for, and that took a stored row's.
	HeadsBuilt, HeadsBorrowed *metrics.Counter
}

// NewInstruments resolves the evaluation instruments from r. A nil
// registry yields nil (collection disabled).
func NewInstruments(r *metrics.Registry) *Instruments {
	if r == nil {
		return nil
	}
	return &Instruments{
		JoinProbes:    r.Counter("eval_join_probes_total"),
		JoinScans:     r.Counter("eval_join_scans_total"),
		HeadsBuilt:    r.Counter("eval_heads_built_total"),
		HeadsBorrowed: r.Counter("eval_heads_borrowed_total"),
	}
}
