package ivm_test

// One testing.B benchmark per reproduction experiment (DESIGN.md /
// EXPERIMENTS.md). cmd/ivmbench prints the full paper-style tables; these
// benches expose the same workloads to `go test -bench` so regressions
// are visible in standard tooling. Experiment E11 is property-based and
// lives in property_test.go.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ivm"
	"ivm/internal/core/counting"
	"ivm/internal/eval"
	"ivm/internal/experiments"
	"ivm/internal/relation"
	"ivm/internal/storage"
	"ivm/internal/workload"
)

const (
	benchNodes = 150
	benchEdges = 900
)

func benchLink() *relation.Relation {
	return workload.RandomGraph(experiments.Rng(1), benchNodes, benchEdges)
}

// applyRounds repeatedly applies a delete+reinsert pair so the engine
// state returns to its start each two iterations (steady-state benching).
func applyRounds(b *testing.B, apply func(d *relation.Relation) error, link *relation.Relation) {
	b.Helper()
	del := workload.SampleDeletes(experiments.Rng(7), link, 1)
	var ins *relation.Relation
	del.Each(func(r relation.Row) {
		ins = relation.New(del.Arity())
		ins.Add(r.Tuple, 1)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := del
		if i%2 == 1 {
			d = ins
		}
		if err := apply(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1HopMaintenance — Example 1.1 at scale: single-edge
// maintenance of the hop view under counting.
func BenchmarkE1HopMaintenance(b *testing.B) {
	b.ReportAllocs()
	link := benchLink()
	e := experiments.CountingEngine(experiments.HopProgram, experiments.LinkDB(link.Clone()), eval.Duplicate)
	applyRounds(b, func(d *relation.Relation) error {
		_, err := e.Apply(experiments.DeltaOf(d))
		return err
	}, link)
}

// BenchmarkE2TriHop — Example 4.2 at scale: two-stratum maintenance.
func BenchmarkE2TriHop(b *testing.B) {
	b.ReportAllocs()
	link := benchLink()
	e := experiments.CountingEngine(experiments.TriHopProgram, experiments.LinkDB(link.Clone()), eval.Duplicate)
	applyRounds(b, func(d *relation.Relation) error {
		_, err := e.Apply(experiments.DeltaOf(d))
		return err
	}, link)
}

// BenchmarkE3SetOptimization — statement (2) ablation: the same batch
// with and without the set-semantics cascade cut.
func BenchmarkE3SetOptimization(b *testing.B) {
	b.ReportAllocs()
	// Without statement (2) a set view keeps full duplicate counts:
	// duplicate semantics over the same sets.
	for _, sem := range []eval.Semantics{eval.Set, eval.Duplicate} {
		name := "with-stmt2"
		if sem == eval.Duplicate {
			name = "without-stmt2"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			link := workload.RandomGraph(experiments.Rng(3), benchNodes/3, benchEdges/2)
			e, err := counting.NewWithConfig(experiments.MustRules(experiments.TriHopProgram), experiments.LinkDB(link.Clone()),
				counting.Config{Semantics: sem})
			if err != nil {
				b.Fatal(err)
			}
			applyRounds(b, func(d *relation.Relation) error {
				_, err := e.Apply(experiments.DeltaOf(d))
				return err
			}, link)
		})
	}
}

// BenchmarkE4Negation — only_tri_hop maintenance (Definition 6.1).
func BenchmarkE4Negation(b *testing.B) {
	b.ReportAllocs()
	link := workload.RandomGraph(experiments.Rng(4), benchNodes/2, benchEdges/2)
	e := experiments.CountingEngine(experiments.OnlyTriHopProgram, experiments.LinkDB(link.Clone()), eval.Duplicate)
	applyRounds(b, func(d *relation.Relation) error {
		_, err := e.Apply(experiments.DeltaOf(d))
		return err
	}, link)
}

// BenchmarkE5Aggregation — min_cost_hop maintenance (Algorithm 6.1).
func BenchmarkE5Aggregation(b *testing.B) {
	b.ReportAllocs()
	link := workload.RandomWeightedGraph(experiments.Rng(5), benchNodes/2, benchEdges/2, 100)
	e := experiments.CountingEngine(experiments.MinCostHopProgram, experiments.LinkDB(link.Clone()), eval.Duplicate)
	applyRounds(b, func(d *relation.Relation) error {
		_, err := e.Apply(experiments.DeltaOf(d))
		return err
	}, link)
}

// BenchmarkE6CountingVsRecompute — the heuristic-of-inertia sweep: one
// sub-bench per Δ-fraction per engine.
func BenchmarkE6CountingVsRecompute(b *testing.B) {
	b.ReportAllocs()
	link := benchLink()
	for _, frac := range []float64{0.001, 0.01, 0.1, 0.5} {
		k := int(float64(link.Len()) * frac)
		if k < 1 {
			k = 1
		}
		for _, engine := range []string{"counting", "recompute"} {
			b.Run(fmt.Sprintf("%s/delta=%.1f%%", engine, frac*100), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					d := workload.SampleDeletes(experiments.Rng(int64(60+i)), link, k)
					var apply func() error
					if engine == "counting" {
						e := experiments.CountingEngine(experiments.TriHopProgram, experiments.LinkDB(link.Clone()), eval.Duplicate)
						apply = func() error { _, err := e.Apply(experiments.DeltaOf(d)); return err }
					} else {
						e := experiments.RecomputeEngine(experiments.TriHopProgram, experiments.LinkDB(link.Clone()), eval.Duplicate)
						apply = func() error { _, err := e.Apply(experiments.DeltaOf(d)); return err }
					}
					b.StartTimer()
					if err := apply(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE7CountOverhead — view evaluation with and without count
// tracking (Section 5's "little or no cost").
func BenchmarkE7CountOverhead(b *testing.B) {
	b.ReportAllocs()
	link := benchLink()
	db := experiments.LinkDB(link)
	for _, track := range []bool{true, false} {
		name := "with-counts"
		if !track {
			name = "without-counts"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.Evaluate(experiments.TriHopProgram, db, eval.Set, track)
			}
		})
	}
}

// BenchmarkE8DRedTC — DRed vs recompute on recursive transitive closure.
func BenchmarkE8DRedTC(b *testing.B) {
	b.ReportAllocs()
	link := workload.LayeredDAG(experiments.Rng(81), 14, 8, 3)
	for _, engine := range []string{"dred", "recompute"} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			var apply func(d *relation.Relation) error
			if engine == "dred" {
				e := experiments.DRedEngine(experiments.TCProgram, experiments.LinkDB(link.Clone()))
				apply = func(d *relation.Relation) error { _, err := e.Apply(experiments.DeltaOf(d)); return err }
			} else {
				e := experiments.RecomputeEngine(experiments.TCProgram, experiments.LinkDB(link.Clone()), eval.Set)
				apply = func(d *relation.Relation) error { _, err := e.Apply(experiments.DeltaOf(d)); return err }
			}
			applyRounds(b, apply, link)
		})
	}
}

// BenchmarkE9DRedVsPF — the fragmentation gap (Section 2's
// order-of-magnitude claim).
func BenchmarkE9DRedVsPF(b *testing.B) {
	b.ReportAllocs()
	link := workload.LayeredDAG(experiments.Rng(91), 12, 8, 3)
	k := 8
	for _, engine := range []string{"dred", "pf-per-tuple"} {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := workload.ClusteredDeletes(link, k)
				var apply func() error
				if engine == "dred" {
					e := experiments.DRedEngine(experiments.TCProgram, experiments.LinkDB(link.Clone()))
					apply = func() error { _, err := e.Apply(experiments.DeltaOf(d)); return err }
				} else {
					e := experiments.PFEngine(experiments.TCProgram, experiments.LinkDB(link.Clone()), true)
					apply = func() error { _, err := e.Apply(experiments.DeltaOf(d)); return err }
				}
				b.StartTimer()
				if err := apply(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10RuleChange — incremental rule insertion (Section 7).
func BenchmarkE10RuleChange(b *testing.B) {
	b.ReportAllocs()
	link := workload.RandomGraph(experiments.Rng(10), benchNodes/2, benchEdges/3)
	hyper := workload.RandomGraph(experiments.Rng(11), benchNodes/2, 8)
	rule := experiments.MustRules(`tc(X,Y) :- hyperlink(X,Y).`).Rules[0]
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := experiments.LinkDB(link.Clone())
		db.Put("hyperlink", hyper.Clone())
		e := experiments.DRedEngine(experiments.TCProgram, db)
		b.StartTimer()
		if _, err := e.AddRule(rule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12InsertOnly — pure insertion maintenance of transitive
// closure (semi-naive, no deletion machinery). A layered DAG keeps the
// untimed undo pass cheap so the timer isolates the insert.
func BenchmarkE12InsertOnly(b *testing.B) {
	b.ReportAllocs()
	link := workload.LayeredDAG(experiments.Rng(12), 12, 8, 3)
	e := experiments.DRedEngine(experiments.TCProgram, experiments.LinkDB(link.Clone()))
	ins := workload.ClusteredDeletes(link, 4).Negate() // 4 forward edges...
	// ...that we first remove from the engine so each timed op re-inserts
	// them into a state where they are absent.
	del := ins.Negate()
	if _, err := e.Apply(experiments.DeltaOf(del)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Apply(experiments.DeltaOf(ins)); err != nil {
			b.Fatal(err)
		}
		// Undo outside the timer so only insertion propagation is measured.
		b.StopTimer()
		if _, err := e.Apply(experiments.DeltaOf(del)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkPlannerSkew — the cost-based planner on skewed cardinalities:
// hot is small with a 1000-way fan-out per key, wide is large but
// near-unique, and the timed Δreq keys hit hot's fan-out while missing
// wide (they draw from the half of hot's keys that wide does not
// overlap). The planner probes wide first (fan-out ≈ 1, early exit).
func BenchmarkPlannerSkew(b *testing.B) {
	b.ReportAllocs()
	v := skewViews(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Apply(skewMissToggle(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// The skewed join of BenchmarkPlannerSkew and TestPlannerSkewProbeCount:
// wide covers h0..h3 of hot's eight keys; skewMissToggle requests h4..h7.
const (
	skewHotKeys, skewFanout = 8, 1000
	skewWideRows            = 20000
	skewOverlap             = 4
)

func skewViews(tb testing.TB) *ivm.Views {
	hot, wide := workload.SkewedJoin(skewHotKeys, skewFanout, skewWideRows, skewOverlap)
	db := ivm.NewDatabase()
	for _, row := range hot.SortedRows() {
		db.InsertTuple("hot", row.Tuple, 1)
	}
	for _, row := range wide.SortedRows() {
		db.InsertTuple("wide", row.Tuple, 1)
	}
	v, err := db.Materialize(`out(Y,Z) :- req(X), hot(X,Y), wide(X,Z).`)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// skewMissToggle is the i-th Δreq of the stream: insert (even i) then
// delete (odd i) a key that hits hot's fan-out and misses wide.
func skewMissToggle(i int) *ivm.Update {
	u := ivm.NewUpdate()
	key := workload.SkewedReqKey(skewHotKeys, skewOverlap+(i/2)%(skewHotKeys-skewOverlap)).String()
	if i%2 == 0 {
		u.Insert("req", key)
	} else {
		u.Delete("req", key)
	}
	return u
}

// hopDegProgram is the layered benchmark's replica_follow program.
const hopDegProgram = `hop(X,Y) :- link(X,Z), link(Z,Y).
tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).
`

// slidingLinks is replica_follow's stream in small: 800 nodes, 1 600 live
// links, and each update deletes the 8 oldest and inserts 8 new ones
// (|Δ| = 16 base rows, ~350 committed delta rows).
type slidingLinks struct {
	rng  *rand.Rand
	live []ivm.Tuple
	has  map[string]bool
}

func newSlidingLinks() *slidingLinks {
	g := &slidingLinks{rng: experiments.Rng(1), has: make(map[string]bool)}
	for len(g.live) < 1600 {
		g.insert(nil)
	}
	return g
}

func (g *slidingLinks) insert(u *ivm.Update) {
	for {
		t := ivm.T(fmt.Sprintf("n%d", g.rng.Intn(800)), fmt.Sprintf("n%d", g.rng.Intn(800)))
		if k := t.Key(); !g.has[k] {
			g.has[k] = true
			g.live = append(g.live, t)
			if u != nil {
				u.InsertTuple("link", t, 1)
			}
			return
		}
	}
}

func (g *slidingLinks) next() *ivm.Update {
	u := ivm.NewUpdate()
	for _, t := range g.live[:8] {
		delete(g.has, t.Key())
		u.InsertTuple("link", t, -1)
	}
	g.live = g.live[8:]
	for i := 0; i < 8; i++ {
		g.insert(u)
	}
	return u
}

// BenchmarkApplyCommitRecord — one commit replayed on a follower: folded
// from the deltas its record carries, or re-derived from its script (the
// replay step before records carried deltas).
func BenchmarkApplyCommitRecord(b *testing.B) {
	for _, mode := range []string{"fold", "script"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			gen := newSlidingLinks()
			db := ivm.NewDatabase()
			for _, t := range gen.live {
				db.InsertTuple("link", t, 1)
			}
			primary, err := db.Materialize(hopDegProgram)
			if err != nil {
				b.Fatal(err)
			}
			var recs []ivm.CommitRecord
			var scripts []string
			h := primary.History()
			snap := primary.Snapshot()
			follower, err := ivm.ViewsFromReplicaState(snap.ReplicaState())
			if err != nil {
				b.Fatal(err)
			}
			follower.SeedVersion(snap.Version())
			const chunk = 256
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 {
					b.StopTimer()
					recs, scripts = recs[:0], scripts[:0]
					for j := 0; j < chunk && i+j < b.N; j++ {
						u := gen.next()
						scripts = append(scripts, u.String())
						cs, err := primary.Apply(u)
						if err != nil {
							b.Fatal(err)
						}
						ev, _ := h.At(cs.Version())
						recs = append(recs, ev.CommitRecord)
					}
					b.StartTimer()
				}
				if mode == "fold" {
					_, err = follower.ApplyCommitRecord(recs[i%chunk], time.Time{})
				} else {
					_, err = follower.ApplyScriptReplicated(scripts[i%chunk], nil)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeCommitRecord — cutting one commit's record from the
// deltas its engine committed.
func BenchmarkEncodeCommitRecord(b *testing.B) {
	b.ReportAllocs()
	gen := newSlidingLinks()
	link := relation.New(2)
	for _, t := range gen.live {
		link.Add(t, 1)
	}
	e := experiments.CountingEngine(hopDegProgram, experiments.LinkDB(link), eval.Set)
	d := relation.New(2)
	for _, t := range gen.live[:8] {
		d.Add(t, -1)
	}
	if _, err := e.Apply(experiments.DeltaOf(d)); err != nil {
		b.Fatal(err)
	}
	deltas, keys := e.CommittedDeltas(), []string{"op-1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := storage.EncodeCommitRecord(uint64(i), keys, nil, 0, deltas)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(rec.Payload)))
	}
}
