package ivm_test

// Guards on the cost-based join planner (DESIGN.md §12), the only join
// order there is: its plan cache hit rate and its probe count on a skewed
// join.

import (
	"testing"

	"ivm"
)

// TestPlannerCacheSteadyState drives many same-shaped update batches and
// asserts the plan cache reaches a ≥99% hit rate: steady-state
// maintenance must not pay planning costs.
func TestPlannerCacheSteadyState(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(n0,n1).`)
	v, err := db.Materialize(`
		hop(X,Y)    :- link(X,Z), link(Z,Y).
		triple(X,Y) :- hop(X,Z), link(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Sliding-window workload: every apply inserts a fresh edge and
	// retracts the one inserted 40 steps earlier, so deltas flow every
	// batch while relation sizes stay flat (no cardinality drift).
	edge := func(i int) string {
		return "link(v" + itoa(i%50) + ", v" + itoa((i+13)%50) + ")"
	}
	for i := 0; i < 4000; i++ {
		script := "+" + edge(i) + "."
		if i >= 40 {
			script += " -" + edge(i-40) + "."
		}
		if _, err := v.ApplyScript(script); err != nil {
			t.Fatal(err)
		}
	}
	m := v.Metrics()
	hits := m.Counters["planner_hits_total"]
	misses := m.Counters["planner_misses_total"]
	replans := m.Counters["planner_replans_total"]
	total := hits + misses + replans
	if total == 0 {
		t.Fatal("planner recorded no lookups")
	}
	rate := float64(hits) / float64(total)
	if rate < 0.99 {
		t.Fatalf("plan cache hit rate %.4f (hits %d, misses %d, replans %d), want >= 0.99",
			rate, hits, misses, replans)
	}
	if m.Gauges["planner_plans"] == 0 {
		t.Fatal("planner_plans gauge is zero after maintenance")
	}
}

// TestPlannerSkewProbeCount is the planner's skew win as a count: on
// BenchmarkPlannerSkew's data (hot fans out 1000-way per key, wide is
// near-unique) the Δreq stream must cost exactly the join probes the
// planner's order costs, probing wide first and exiting after ≤ 1 match.
// The syntactic greedy order PR 25 deleted enumerated hot's fan-out and
// probed wide once per row: 44 044 probes (EXPERIMENTS.md E27).
func TestPlannerSkewProbeCount(t *testing.T) {
	v := skewViews(t)
	before := v.Metrics().Counter("eval_join_probes_total")
	for i := 0; i < 40; i++ {
		if _, err := v.Apply(skewMissToggle(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Then the keys wide does cover, so the view is not empty.
	u := ivm.NewUpdate()
	for k := 0; k < skewOverlap; k++ {
		u.Insert("req", skewedReqKey(skewHotKeys, k).String())
	}
	if _, err := v.Apply(u); err != nil {
		t.Fatal(err)
	}
	if rows, want := len(v.Rows("out")), skewOverlap*skewFanout; rows != want {
		t.Fatalf("out holds %d rows, want %d", rows, want)
	}
	if probes := v.Metrics().Counter("eval_join_probes_total") - before; probes != 48 {
		t.Fatalf("eval_join_probes_total moved by %d, want 48: the planner no longer probes wide before hot", probes)
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// TestExplainPlanRendersOrderAndAccessPaths pins the ExplainPlan output
// contract: deterministic rendering of the chosen order and access
// paths.
func TestExplainPlanRendersOrderAndAccessPaths(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c). link(c,d).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := v.ExplainPlan("hop")
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("ExplainPlan returned %d plans, want 1", len(plans))
	}
	first := plans[0].Plan
	if first == "" {
		t.Fatal("empty plan rendering")
	}
	for i := 0; i < 10; i++ {
		again, err := v.ExplainPlan("hop")
		if err != nil {
			t.Fatal(err)
		}
		if again[0].Plan != first {
			t.Fatalf("ExplainPlan not deterministic:\n%s\n%s", first, again[0].Plan)
		}
	}
	// Two join literals: the rendering must name an access path per step.
	if got := first; !containsAll(got, "scan", "link") {
		t.Fatalf("plan rendering missing access paths: %q", got)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
