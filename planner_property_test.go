package ivm_test

// Property-based equivalence tests for the cost-based join planner: for
// random base relations and update sequences, a Views maintained with
// the planner (the default) must be bit-identical — same tuples, same
// derivation counts, same reported change sets — to one maintained with
// WithoutPlanner (the static greedy order). Together the program
// families × quick.Check trials exceed 100 randomized runs.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ivm"
	"ivm/internal/workload"
)

// plannerCases reuses the parallel suite's program families and adds
// strategies the parallel suite does not cover: the planner threads
// through counting, DRed, recompute, and PF alike.
var plannerCases = []struct {
	name     string
	src      string
	strategy ivm.Strategy
	weighted bool
}{
	{"join-counting", propertyPrograms[0].src, ivm.Counting, false},
	{"negation-counting", propertyPrograms[1].src, ivm.Counting, false},
	{"aggregation-counting", propertyPrograms[2].src, ivm.Counting, true},
	{"recursion-dred", propertyPrograms[3].src, ivm.DRed, false},
	{"recursion-negation-dred", propertyPrograms[4].src, ivm.DRed, false},
	{"join-recompute", propertyPrograms[0].src, ivm.Recompute, false},
	{"join-pf", propertyPrograms[0].src, ivm.PF, false},
}

func TestPropertyPlannerMatchesGreedy(t *testing.T) {
	for _, tc := range plannerCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				baseFacts := randomEdges(rng, 7, 12, tc.weighted).String()

				mk := func(opts ...ivm.Option) *ivm.Views {
					db := ivm.NewDatabase()
					db.MustLoad(baseFacts)
					opts = append(opts, ivm.WithStrategy(tc.strategy))
					v, err := db.Materialize(tc.src, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return v
				}
				planned := mk()
				greedy := mk(ivm.WithoutPlanner())

				check := func(round int) {
					for pred := range planned.Program().DerivedPreds() {
						if !sameRows(planned.Rows(pred), greedy.Rows(pred)) {
							t.Fatalf("seed %d round %d: %s diverges under the planner\nplanned %v\ngreedy  %v",
								seed, round, pred, planned.Rows(pred), greedy.Rows(pred))
						}
					}
				}
				check(-1) // initial materialization

				for round := 0; round < 6; round++ {
					d := buildDelta(rng, greedy, tc.weighted)
					if d.Empty() {
						continue
					}
					csP, err := planned.Apply(d)
					if err != nil {
						t.Fatalf("seed %d round %d planned: %v", seed, round, err)
					}
					csG, err := greedy.Apply(d)
					if err != nil {
						t.Fatalf("seed %d round %d greedy: %v", seed, round, err)
					}
					// Reported change sets must match exactly too.
					pp, gp := csP.Preds(), csG.Preds()
					if len(pp) != len(gp) {
						t.Fatalf("seed %d round %d: changed preds diverge %v vs %v", seed, round, pp, gp)
					}
					for i, pred := range pp {
						if gp[i] != pred || !sameRows(csP.Delta(pred), csG.Delta(pred)) {
							t.Fatalf("seed %d round %d: Δ(%s) diverges\nplanned %v\ngreedy  %v",
								seed, round, pred, csP.Delta(pred), csG.Delta(pred))
						}
					}
					check(round)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
				t.Error(err)
			}
		})
	}
}

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
// near-unique) the same Δreq stream must leave identical out rows with
// and without the planner, and cost at least 10× fewer join probes with
// it — probing wide first exits after ≤ 1 match, where the static order
// enumerates hot's fan-out and probes wide once per row.
func TestPlannerSkewProbeCount(t *testing.T) {
	probes := func(opts ...ivm.Option) (int64, []ivm.Row) {
		v := skewViews(t, opts...)
		before := v.Metrics().Counter("eval_join_probes_total")
		for i := 0; i < 40; i++ {
			if _, err := v.Apply(skewMissToggle(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Then the keys wide does cover, so the compared view is not empty.
		u := ivm.NewUpdate()
		for k := 0; k < skewOverlap; k++ {
			u.Insert("req", workload.SkewedReqKey(skewHotKeys, k).String())
		}
		if _, err := v.Apply(u); err != nil {
			t.Fatal(err)
		}
		return v.Metrics().Counter("eval_join_probes_total") - before, v.Rows("out")
	}
	planned, rowsP := probes()
	greedy, rowsG := probes(ivm.WithoutPlanner())
	if want := skewOverlap * skewFanout; len(rowsP) != want || !sameRows(rowsP, rowsG) {
		t.Fatalf("out diverges under the planner: %d rows planned, %d greedy, want %d", len(rowsP), len(rowsG), want)
	}
	if planned == 0 || planned*10 > greedy {
		t.Fatalf("eval_join_probes_total: %d with the planner, %d without — want at least 10x fewer", planned, greedy)
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
