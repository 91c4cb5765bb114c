package eval

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ivm/internal/datalog"
	"ivm/internal/relation"
)

// Parallel rule evaluation.
//
// The delta rules of a stratum (and the rules of a nonrecursive stratum,
// and each round of a semi-naive fixpoint) are independent: they read
// shared relations and write disjoint outputs. RunBatch evaluates such a
// batch across a worker pool; EvalRuleParallel additionally splits one
// rule's work by hash-partitioning a join literal's relation across
// workers, each writing a private shard that is ⊎-merged deterministically
// afterwards. Both paths produce relations identical to sequential
// evaluation: ⊎ adds counts, counts are commutative, and every derivation
// is produced exactly once because the partitions of the chosen literal
// are disjoint and each derivation uses exactly one row of it.
//
// Readers shared between workers are never mutated during a batch; the
// only internal write a read can trigger — a lazy index build inside
// relation.Lookup — is synchronized by the relation package.

// Workers resolves a parallelism setting to a worker count: n >= 1 is
// used as-is, anything else (0 = "auto") means one worker per available
// CPU.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// minPartitionRows gates hash-partitioned single-rule evaluation: below
// this size the scheduling and merge overhead dominates any win.
const minPartitionRows = 64

// Task is one independent rule evaluation of a batch, equivalent to
// EvalRule(Rule, Srcs, FirstLit, Out). Out must be private to the task
// until the batch completes.
type Task struct {
	Rule     datalog.Rule
	Srcs     []Source
	FirstLit int
	Out      *relation.Relation
	// Plan, when non-nil, is the cached cost-based plan to follow;
	// nil tasks evaluate with the greedy order.
	Plan *Plan
}

// RunBatch evaluates a batch of independent rule evaluations with up to
// `workers` goroutines, without instrumentation.
func RunBatch(tasks []Task, workers int) error {
	return RunBatchInstr(tasks, workers, nil)
}

// RunBatchInstr is RunBatch with instrumentation: task counts, per-task
// busy time, and queue wait are recorded into in when non-nil. With
// workers <= 1 the batch runs sequentially. When the batch has fewer
// tasks than workers, the surplus workers are spent partitioning
// individual tasks. The first error in task order is returned
// (deterministically, regardless of scheduling).
func RunBatchInstr(tasks []Task, workers int, in *Instruments) error {
	if len(tasks) == 0 {
		return nil
	}
	if in != nil {
		in.BatchTasks.Add(int64(len(tasks)))
	}
	var submitted time.Time
	if in != nil {
		submitted = time.Now()
	}
	// timed wraps one task evaluation with queue-wait and busy-time
	// observation; with in == nil it is a plain call.
	timed := func(i int, eval func(t *Task) error) error {
		t := &tasks[i]
		if in == nil {
			return eval(t)
		}
		start := time.Now()
		in.QueueWait.Observe(start.Sub(submitted))
		err := eval(t)
		in.TaskBusy.Observe(time.Since(start))
		return err
	}
	if workers <= 1 {
		for i := range tasks {
			if err := timed(i, func(t *Task) error {
				return EvalRulePlanInstr(t.Rule, t.Srcs, t.FirstLit, t.Plan, t.Out, in)
			}); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	if len(tasks) < workers {
		// Few big tasks: run them concurrently and give each a share of
		// the surplus workers for intra-rule partitioning.
		per := workers / len(tasks)
		var wg sync.WaitGroup
		for i := range tasks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = timed(i, func(t *Task) error {
					return evalRuleParallel(t.Rule, t.Srcs, t.FirstLit, t.Plan, t.Out, per, in)
				})
			}(i)
		}
		wg.Wait()
	} else {
		// Many tasks: a plain pool, one task at a time per worker.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					errs[i] = timed(i, func(t *Task) error {
						return EvalRulePlanInstr(t.Rule, t.Srcs, t.FirstLit, t.Plan, t.Out, in)
					})
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EvalRuleParallel is EvalRule with the join work of one literal hash-
// partitioned across `workers` goroutines. Each worker evaluates the rule
// with that literal's relation restricted to its partition, writing a
// private shard; the shards are ⊎-merged into out in sorted key order.
// Falls back to sequential EvalRule when no literal is worth splitting.
func EvalRuleParallel(rule datalog.Rule, srcs []Source, firstLit int, out *relation.Relation, workers int) error {
	return evalRuleParallel(rule, srcs, firstLit, nil, out, workers, nil)
}

func evalRuleParallel(rule datalog.Rule, srcs []Source, firstLit int, plan *Plan, out *relation.Relation, workers int, in *Instruments) error {
	pl := -1
	if workers > 1 {
		pl = pickPartitionLit(rule, srcs, firstLit)
	}
	if pl < 0 {
		return EvalRulePlanInstr(rule, srcs, firstLit, plan, out, in)
	}
	if in != nil {
		in.PartitionedJoins.Inc()
	}
	sh := relation.NewShards(out, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := make([]Source, len(srcs))
			copy(ps, srcs)
			ps[pl].Rel = relation.PartitionView(srcs[pl].Rel, w, workers)
			// The plan stays valid under partition substitution: only one
			// source's contents shrink, the order and access paths hold.
			errs[w] = EvalRulePlanInstr(rule, ps, firstLit, plan, sh.Shard(w), in)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sh.MergeInto(out)
	return nil
}

// pickPartitionLit chooses the body literal whose relation to split:
// the designated first literal when it is join-mode and large enough
// (splitting the leading scan divides the whole walk), otherwise the
// largest join-mode literal. Returns -1 when nothing reaches
// minPartitionRows — correctness only requires the partitioned literal
// to be consumed in join mode (exactly one row per derivation), which
// positive, Δ-negated, and aggregate literals all are.
func pickPartitionLit(rule datalog.Rule, srcs []Source, firstLit int) int {
	joinMode := func(i int) bool {
		lit := rule.Body[i]
		switch lit.Kind {
		case datalog.LitPositive, datalog.LitAggregate:
			return srcs[i].Rel != nil
		case datalog.LitNegated:
			return srcs[i].JoinDelta && srcs[i].Rel != nil
		}
		return false
	}
	if firstLit >= 0 && firstLit < len(rule.Body) && joinMode(firstLit) &&
		srcs[firstLit].Rel.Len() >= minPartitionRows {
		return firstLit
	}
	best, bestLen := -1, minPartitionRows-1
	for i := range rule.Body {
		if !joinMode(i) {
			continue
		}
		if l := srcs[i].Rel.Len(); l > bestLen {
			best, bestLen = i, l
		}
	}
	return best
}
