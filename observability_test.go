package ivm_test

// Tests for the observability layer: the metrics registry surfaced via
// Views.Metrics(), agreement between metric counters and the per-version
// ApplyTrace, tracer hooks, and the race-safety of Trace (run with -race).

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivm"
	"ivm/internal/relation"
)

func TestCountingMetricsAgreeWithStats(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithStrategy(ivm.Counting))
	if err != nil {
		t.Fatal(err)
	}

	var rules, tuples int
	for i := 0; i < 5; i++ {
		if _, err := v.Apply(ivm.NewUpdate().Insert("link", "c", fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
		tr := v.Trace()
		if tr.Strategy != ivm.Counting {
			t.Fatalf("traced strategy %v, want counting", tr.Strategy)
		}
		st := tr.Stats
		rules += st.DeltaRulesEvaluated
		tuples += st.DeltaTuples
	}

	m := v.Metrics()
	if got := m.Counter("counting_applies_total"); got != 5 {
		t.Fatalf("counting_applies_total = %d, want 5", got)
	}
	if got := m.Counter("counting_delta_rules_total"); got != int64(rules) {
		t.Fatalf("counting_delta_rules_total = %d, Stats sum = %d", got, rules)
	}
	if got := m.Counter("counting_delta_tuples_total"); got != int64(tuples) {
		t.Fatalf("counting_delta_tuples_total = %d, Stats sum = %d", got, tuples)
	}
	if hs, ok := m.Histograms["counting_apply_seconds"]; !ok || hs.Count != 5 {
		t.Fatalf("counting_apply_seconds: %+v ok=%v", hs, ok)
	}
	if m.Counter("eval_join_probes_total") == 0 {
		t.Fatal("join probes must be recorded")
	}
	// The probe/scan split: Δlink pinned first is a scan, the keyed
	// second link position probes — both series must be populated.
	if m.Counter("eval_join_scans_total") == 0 {
		t.Fatal("join scans must be recorded")
	}
	// The planner is on by default: its cache series must be live and
	// the plan gauge nonzero after maintenance.
	if m.Counter("planner_misses_total") == 0 {
		t.Fatal("planner misses must be recorded (first plan per key)")
	}
	if m.Counter("planner_hits_total") == 0 {
		t.Fatal("planner hits must be recorded (repeated same-shape applies)")
	}
	if m.Gauge("planner_plans") == 0 {
		t.Fatal("planner_plans gauge must reflect the cached plans")
	}
	if m.Gauge("relation_indexes_built") < 0 {
		t.Fatal("relation_indexes_built gauge must be non-negative")
	}
	// Five applies each published at least their base delta; the gauges
	// are process-wide, so other tests may have moved them further.
	if got := m.Gauge("relation_version_rows_linked"); got < 5 {
		t.Fatalf("relation_version_rows_linked = %d after 5 applies", got)
	}
	if m.Gauge("relation_version_rows_copied") < 0 {
		t.Fatal("relation_version_rows_copied gauge must be non-negative")
	}

	// Text exposition includes the counting series.
	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "counting_applies_total 5\n") {
		t.Fatalf("exposition missing counter:\n%s", b.String())
	}
}

func TestDRedMetricsAgreeWithStats(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c). link(a,c).`)
	v, err := db.Materialize(`
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`, ivm.WithStrategy(ivm.DRed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b")); err != nil {
		t.Fatal(err)
	}
	tr := v.Trace()
	if tr.Strategy != ivm.DRed || len(tr.Strata) != 1 || tr.Strata[0].Algorithm != "dred" {
		t.Fatalf("trace %+v, want one DRed stratum", tr)
	}
	st := tr.Stats
	m := v.Metrics()
	if got := m.Counter("dred_ops_total"); got != 1 {
		t.Fatalf("dred_ops_total = %d, want 1", got)
	}
	if got := m.Counter("dred_overestimated_total"); got != int64(st.Overestimated) {
		t.Fatalf("dred_overestimated_total = %d, Stats = %d", got, st.Overestimated)
	}
	if got := m.Counter("dred_rule_firings_total"); got != int64(st.RuleFirings) {
		t.Fatalf("dred_rule_firings_total = %d, Stats = %d", got, st.RuleFirings)
	}
	if got := m.Counter("dred_fixpoint_rounds_total"); got == 0 || got != int64(st.FixpointRounds) {
		t.Fatalf("dred_fixpoint_rounds_total = %d, Stats = %d", got, st.FixpointRounds)
	}
	if hs := m.Histograms["dred_apply_seconds"]; hs.Count != 1 {
		t.Fatalf("dred_apply_seconds count = %d", hs.Count)
	}
	// The step series are observed from the trace's one DRed stratum.
	for i, name := range []string{"dred_step1_seconds", "dred_step2_seconds", "dred_step3_seconds"} {
		if hs := m.Histograms[name]; hs.Count != 1 || hs.Sum != tr.Strata[0].Steps[i] {
			t.Fatalf("%s = %+v, the trace's step %v", name, hs, tr.Strata[0].Steps[i])
		}
	}
}

// Deleting a group's current minimum folds like any other delete: the
// group moves to the next value its state holds. Every apply here deletes
// the minimum of group a or b and inserts into group c above its minimum;
// after each, the views equal a recomputation, and the stream builds as
// many relation indexes as the same stream under count, so no group reads
// the grouped relation e.
func TestMinRescansAreCounted(t *testing.T) {
	const applies = 20
	for _, s := range []ivm.Strategy{ivm.Counting, ivm.DRed} {
		indexes := make(map[string]int64)
		for _, fn := range []string{"min", "count"} {
			program := `m(G, M) :- groupby(e(G, V), [G], M = ` + fn + `(V)).`
			db := ivm.NewDatabase()
			for i := 0; i < applies; i++ {
				db.Insert("e", "a", i)
				db.Insert("e", "b", 100+i)
			}
			db.Insert("e", "c", -1)
			v, err := db.Materialize(program, ivm.WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := db.Materialize(program, ivm.WithStrategy(ivm.Recompute))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < applies; i++ {
				u := ivm.NewUpdate().Insert("e", "c", i)
				if i%2 == 0 {
					u.Delete("e", "a", i/2)
				} else {
					u.Delete("e", "b", 100+i/2)
				}
				built := relation.IndexesBuilt()
				if _, err := v.Apply(u); err != nil {
					t.Fatal(err)
				}
				indexes[fn] += relation.IndexesBuilt() - built
				if _, err := oracle.Apply(u); err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprint(v.Rows("m")), fmt.Sprint(oracle.Rows("m")); got != want {
					t.Fatalf("%v %s apply %d: m = %s, recompute %s", s, fn, i, got, want)
				}
			}
		}
		if indexes["min"] != indexes["count"] {
			t.Errorf("%v: %d applies built %d relation indexes under min, %d under count", s, applies, indexes["min"], indexes["count"])
		}
	}
}

func TestTracerReceivesBatchLifecycle(t *testing.T) {
	var mu sync.Mutex
	var events []string
	tr := &ivm.FuncTracer{
		OnStratumDone: func(stratum int, d time.Duration) {
			mu.Lock()
			events = append(events, fmt.Sprintf("stratum:%d", stratum))
			mu.Unlock()
		},
		OnRuleEvaluated: func(rule string, tuples int) {
			mu.Lock()
			events = append(events, "rule:"+rule)
			mu.Unlock()
		},
	}

	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithStrategy(ivm.Counting), ivm.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := v.Apply(ivm.NewUpdate().Insert("link", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	// Two δ-rules of hop read link; the one stratum closes after them.
	if want := []string{"rule:hop", "rule:hop", "stratum:1"}; fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("tracer events %v, want %v", events, want)
	}
	// The apply's account is the trace of the version it published.
	trace := v.Trace()
	if trace.Version != cs.Version() || trace.Strategy != ivm.Counting || trace.Published.IsZero() {
		t.Fatalf("trace %+v of version %d", trace, cs.Version())
	}
	if st := trace.Strata; len(st) != 1 || st[0].Stratum != 1 || st[0].Algorithm != "counting" || st[0].Delta != 1 || st[0].Wall <= 0 {
		t.Fatalf("strata %+v, want stratum 1 counting hop(b,d)", st)
	}
	if trace.Stats.DeltaRulesEvaluated != 2 || trace.Stats.DeltaTuples != 1 {
		t.Fatalf("stats %+v", trace.Stats)
	}
}

// TestStatsAccessorsRaceDuringApply hammers Metrics() and Trace() while a
// writer applies batches. Run with -race: a trace is read off the version
// it pins, never concurrently with an Apply writing it.
func TestStatsAccessorsRaceDuringApply(t *testing.T) {
	db := ivm.NewDatabase()
	for i := 0; i < 30; i++ {
		db.Insert("link", fmt.Sprintf("n%d", i%10), fmt.Sprintf("n%d", (i*3+1)%10))
	}
	v, err := db.Materialize(`
		hop(X,Y) :- link(X,Z), link(Z,Y).
		tri(X,Y) :- hop(X,Z), link(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 6
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tr := v.Trace()
				_, _ = tr.Stats, fmt.Sprint(tr.Strata, tr.Published)
				m := v.Metrics()
				_ = m.Counter("counting_applies_total")
			}
		}()
	}

	for round := 0; round < 80; round++ {
		a, b := round%10, (round*7+3)%10
		if _, err := v.Apply(ivm.NewUpdate().Insert("link", fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		if _, err := v.Apply(ivm.NewUpdate().Delete("link", fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if got := v.Metrics().Counter("counting_applies_total"); got != 160 {
		t.Fatalf("counting_applies_total = %d, want 160", got)
	}
}

func TestSQLSnapshotRoundTripKeepsHiddenPreds(t *testing.T) {
	v2 := reopenedStore(t, func() (*ivm.Views, error) {
		return ivm.NewDatabase().MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a','b');
		CREATE VIEW deg(s, n) AS SELECT s, COUNT(*) AS n FROM link GROUP BY s;
	`)
	})
	ch, err := v2.Apply(ivm.NewUpdate().Insert("link", "a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if ch.Empty() {
		t.Fatal("group-by view must change")
	}
	for _, pred := range ch.Preds() {
		if strings.HasPrefix(pred, "aux_") {
			t.Fatalf("internal predicate leaked after reload: %v", ch.Preds())
		}
	}
	if !v2.Has("deg", "a", int64(2)) {
		t.Fatalf("deg after reload: %v", v2.Rows("deg"))
	}
}

func TestApplyEmptyUpdate(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := v.Apply(ivm.NewUpdate())
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Empty() || len(ch.Preds()) != 0 {
		t.Fatalf("empty update must yield an empty change set: %v", ch.Preds())
	}
}

func TestHiddenOnlyChangesYieldEmptyChangeSet(t *testing.T) {
	db := ivm.NewDatabase()
	v, err := db.MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a','b'), ('a','c');
		CREATE VIEW deg(s, n) AS SELECT s, COUNT(*) AS n FROM link GROUP BY s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Another row for an existing group changes the aux per-group helper
	// predicates and the count; the visible change set must contain deg
	// only — never the aux predicates backing it.
	ch, err := v.Apply(ivm.NewUpdate().Insert("link", "a", "d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range ch.Preds() {
		if pred != "deg" {
			t.Fatalf("unexpected predicate in change set: %v", ch.Preds())
		}
	}
}

// TestTraceNamesTheCommitThatRebased: a commit whose merge takes a
// relation's net to its bound (a quarter of its 2 000-row base) rebases
// it, and its trace carries the base rows that copy wrote, on the primary
// and on a follower folding its record, as rows copied and rebased alike;
// a one-link commit before it neither rebases nor compacts and carries 0.
func TestTraceNamesTheCommitThatRebased(t *testing.T) {
	db := ivm.NewDatabase()
	for i := 0; i < 2000; i++ {
		db.Insert("link", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	primary, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	h := primary.History()
	snap := primary.Snapshot()
	follower, err := ivm.ViewsFromReplicaState(snap.ReplicaState())
	if err != nil {
		t.Fatal(err)
	}
	follower.SeedVersion(snap.Version())
	for _, n := range []int{1, 600} {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "+link(c%d_%d, d%d).\n", n, i, i)
		}
		cs, err := primary.ApplyScript(b.String())
		if err != nil {
			t.Fatal(err)
		}
		ev, _ := h.At(cs.Version())
		if _, err := follower.ApplyCommitRecord(ev.CommitRecord, ev.Trace.Published); err != nil {
			t.Fatal(err)
		}
		p, f := primary.Trace().RowsCopied, follower.Trace().RowsCopied
		if n == 1 && (p != 0 || f != 0) {
			t.Fatalf("a one-link commit: the primary's trace copied %d rows and the follower's %d, want 0", p, f)
		}
		if n > 1 && (p < 2000 || f < 2000) {
			t.Fatalf("a %d-link commit: the primary's trace copied %d rows and the follower's %d, want at least link's 2000 base rows", n, p, f)
		}
		if pr, fr := primary.Trace().RowsRebased, follower.Trace().RowsRebased; pr != p || fr != f {
			t.Fatalf("a %d-link commit: the primary's trace rebased %d of its %d rows copied and the follower's %d of %d, want all", n, pr, p, fr, f)
		}
	}
}

// TestTraceNamesTheCommitThatCompacted: a version's trace carries the rows
// its publish copied to compact version chains, on the primary and on a
// follower folding its records. Over a base too large to rebase, 32
// one-link applies that derive nothing deepen link's chain by one link
// each: the 32nd commit alone compacts, folding the 32 one-row links, and
// none of those rows is a rebase's.
func TestTraceNamesTheCommitThatCompacted(t *testing.T) {
	db := ivm.NewDatabase()
	for i := 0; i < 2000; i++ {
		db.Insert("link", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	primary, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	h := primary.History()
	snap := primary.Snapshot()
	follower, err := ivm.ViewsFromReplicaState(snap.ReplicaState())
	if err != nil {
		t.Fatal(err)
	}
	follower.SeedVersion(snap.Version())
	for i := 1; i <= 32; i++ {
		cs, err := primary.ApplyScript(fmt.Sprintf("+link(c%d, d%d).", i, i))
		if err != nil {
			t.Fatal(err)
		}
		ev, _ := h.At(cs.Version())
		if _, err := follower.ApplyCommitRecord(ev.CommitRecord, ev.Trace.Published); err != nil {
			t.Fatal(err)
		}
		want := 0
		if i == 32 {
			want = 32
		}
		if p, f := primary.Trace().RowsCopied, follower.Trace().RowsCopied; p != want || f != want {
			t.Fatalf("apply %d: the primary's trace copied %d rows and the follower's %d, want %d", i, p, f, want)
		}
		if p, f := primary.Trace().RowsRebased, follower.Trace().RowsRebased; p != 0 || f != 0 {
			t.Fatalf("apply %d: the primary's trace rebased %d rows and the follower's %d, want 0: compaction copied them", i, p, f)
		}
	}
}
