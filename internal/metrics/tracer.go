package metrics

import "time"

// Tracer receives maintenance trace events. Implementations must be
// safe for use from the goroutine running the maintenance operation
// (events are emitted synchronously, in order, from under the engine's
// lock — keep handlers fast or hand off to a channel). An operation's
// whole account, keyed by the version it publishes, is ivm.ApplyTrace.
//
// A nil Tracer costs a single nil check per event site: the engines
// guard every emission, and the hot evaluation loops never construct
// event arguments unless a tracer is installed.
type Tracer interface {
	// StratumDone fires after each stratum's delta propagation, with
	// the stratum number (1-based, least first) and its wall time.
	StratumDone(stratum int, d time.Duration)
	// RuleEvaluated fires after each delta-rule evaluation with the
	// rule's text and the number of delta tuples it produced.
	RuleEvaluated(rule string, tuples int)
}

// FuncTracer adapts optional callbacks to the Tracer interface; nil
// callbacks are skipped. The zero value is a valid no-op tracer.
type FuncTracer struct {
	OnStratumDone   func(stratum int, d time.Duration)
	OnRuleEvaluated func(rule string, tuples int)
}

func (t *FuncTracer) StratumDone(stratum int, d time.Duration) {
	if t.OnStratumDone != nil {
		t.OnStratumDone(stratum, d)
	}
}

func (t *FuncTracer) RuleEvaluated(rule string, tuples int) {
	if t.OnRuleEvaluated != nil {
		t.OnRuleEvaluated(rule, tuples)
	}
}
