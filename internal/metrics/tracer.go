package metrics

import "time"

// Tracer receives maintenance trace events. Implementations must be
// safe for use from the goroutine running the maintenance operation
// (events are emitted synchronously, in order, from under the engine's
// lock — keep handlers fast or hand off to a channel).
//
// A nil Tracer costs a single nil check per event site: the engines
// guard every emission, and the hot evaluation loops never construct
// event arguments unless a tracer is installed.
type Tracer interface {
	// BatchStart fires when a maintenance operation (Apply, AddRule,
	// RemoveRule) begins. strategy is "counting", "dred",
	// "counting+dred" or "recompute"; deltaPreds is the number of base
	// predicates with changes.
	BatchStart(strategy string, deltaPreds int)
	// StratumDone fires after each stratum's delta propagation, with
	// the stratum number (1-based, least first) and its wall time.
	StratumDone(stratum int, d time.Duration)
	// RuleEvaluated fires after each delta-rule evaluation with the
	// rule's text and the number of delta tuples it produced.
	RuleEvaluated(rule string, tuples int)
	// BatchDone fires when the operation completes, with its total wall
	// time and the number of derived predicates that changed.
	BatchDone(d time.Duration, changedPreds int)
}

// FuncTracer adapts optional callbacks to the Tracer interface; nil
// callbacks are skipped. The zero value is a valid no-op tracer.
type FuncTracer struct {
	OnBatchStart    func(strategy string, deltaPreds int)
	OnStratumDone   func(stratum int, d time.Duration)
	OnRuleEvaluated func(rule string, tuples int)
	OnBatchDone     func(d time.Duration, changedPreds int)
}

func (t *FuncTracer) BatchStart(strategy string, deltaPreds int) {
	if t.OnBatchStart != nil {
		t.OnBatchStart(strategy, deltaPreds)
	}
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

func (t *FuncTracer) BatchDone(d time.Duration, changedPreds int) {
	if t.OnBatchDone != nil {
		t.OnBatchDone(d, changedPreds)
	}
}
