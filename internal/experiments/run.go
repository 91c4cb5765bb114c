package experiments

import (
	"fmt"
	"time"

	"ivm/internal/baseline/pf"
	"ivm/internal/core/counting"
	"ivm/internal/core/dred"
	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// Scale tunes experiment sizes: 1 is the default benchmark scale; smaller
// values keep smoke runs fast.
type Scale struct {
	Nodes  int // graph nodes for the main sweeps
	Edges  int // graph edges
	Trials int // timing repetitions (median reported)
}

// DefaultScale is used by cmd/ivmbench.
var DefaultScale = Scale{Nodes: 300, Edges: 1800, Trials: 5}

// SmokeScale runs everything in well under a second.
var SmokeScale = Scale{Nodes: 60, Edges: 240, Trials: 3}

// RunAll executes every experiment at the given scale.
func RunAll(s Scale) []*Table {
	return []*Table{
		RunE1(s), RunE2(s), RunE3(s), RunE4(s), RunE5(s), RunE6(s),
		RunE7(s), RunE8(s), RunE9(s), RunE10(s), RunE12(s), RunE13(s),
	}
}

// RunE1 — Example 1.1 at scale: single-edge deletions of the hop view,
// counting vs DRed vs recompute.
func RunE1(s Scale) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "hop view, single base deletion (Example 1.1 at scale)",
		Claim:  "counting deletes exactly the tuples whose last derivation died; both incremental engines beat recomputation",
		Header: []string{"engine", "n", "m", "|hop|", "median maint", "vs recompute"},
	}
	rng := Rng(1)
	link := workload.RandomGraph(rng, s.Nodes, s.Edges)

	var recompMedian time.Duration
	for _, engine := range []string{"recompute", "counting", "dred"} {
		engine := engine
		med, err := medianOf(s.Trials, func() func() error {
			d := workload.SampleDeletes(Rng(rng.Int63()), link, 1)
			switch engine {
			case "counting":
				e := CountingEngine(HopProgram, LinkDB(link.Clone()), eval.Duplicate)
				return func() error { _, err := e.Apply(DeltaOf(d)); return err }
			case "dred":
				e := DRedEngine(HopProgram, LinkDB(link.Clone()))
				return func() error { _, err := e.Apply(DeltaOf(d)); return err }
			default:
				e := RecomputeEngine(HopProgram, LinkDB(link.Clone()), eval.Duplicate)
				return func() error { _, err := e.Apply(DeltaOf(d)); return err }
			}
		})
		if err != nil {
			panic(err)
		}
		if engine == "recompute" {
			recompMedian = med
		}
		hopSize := CountingEngine(HopProgram, LinkDB(link.Clone()), eval.Duplicate).Relation("hop").Len()
		t.Rows = append(t.Rows, []string{
			engine, fmt.Sprint(s.Nodes), fmt.Sprint(link.Len()), fmt.Sprint(hopSize),
			dur(med), ratio(med, recompMedian),
		})
	}
	return t
}

// RunE2 — Example 4.2 at scale: two-stratum hop/tri_hop maintenance under
// mixed batches.
func RunE2(s Scale) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "hop + tri_hop, mixed insert/delete batches (Example 4.2 at scale)",
		Claim:  "delta rules propagate stratum by stratum; cost tracks |Δ|, not |view|",
		Header: []string{"batch |Δ|", "median maint (counting)", "median recompute", "speedup"},
	}
	rng := Rng(2)
	link := workload.RandomGraph(rng, s.Nodes, s.Edges)
	for _, k := range []int{1, 4, 16, 64} {
		d := workload.Mixed(Rng(20+int64(k)), link, s.Nodes, k/2, k-k/2)
		cm, err := medianOf(s.Trials, func() func() error {
			e := CountingEngine(TriHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		rm, err := medianOf(s.Trials, func() func() error {
			e := RecomputeEngine(TriHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), dur(cm), dur(rm), ratio(cm, rm)})
	}
	return t
}

// RunE3 — statement (2) ablation (Example 5.1): with the set-semantics
// optimization on, count-only changes stop cascading.
func RunE3(s Scale) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "set-semantics cascade cut (Algorithm 4.1 statement (2), Example 5.1)",
		Claim:  "without statement (2) every count change cascades; with it, unchanged set images stop propagation",
		Header: []string{"variant", "median maint", "Δ-rules fired", "Δ tuples", "cascades stopped"},
	}
	// A dense graph where most hop tuples have many alternative
	// derivations, so single deletions rarely change set images.
	rng := Rng(3)
	link := workload.RandomGraph(rng, s.Nodes/4, s.Edges/2)
	d := workload.SampleDeletes(Rng(33), link, 4)

	type variant struct {
		name       string
		disableOpt bool
	}
	for _, v := range []variant{{"with stmt (2)", false}, {"without stmt (2)", true}} {
		var fired, tuples, stopped int
		med, err := medianOf(s.Trials, func() func() error {
			e, err := counting.NewWithConfig(MustRules(TriHopProgram), LinkDB(link.Clone()),
				counting.Config{Semantics: eval.Set, DisableSetOpt: v.disableOpt})
			if err != nil {
				panic(err)
			}
			return func() error {
				_, err := e.Apply(DeltaOf(d))
				st := e.Stats().(dred.Stats)
				fired, tuples, stopped = st.DeltaRulesEvaluated, st.DeltaTuples, st.CascadeStopped
				return err
			}
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			v.name, dur(med), fmt.Sprint(fired), fmt.Sprint(tuples), fmt.Sprint(stopped),
		})
	}
	return t
}

// RunE4 — negation maintenance (Example 6.1 / Theorem 6.1).
func RunE4(s Scale) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "negation: only_tri_hop maintenance (Example 6.1, Definition 6.1)",
		Claim:  "Δ(¬q) is computed from ΔQ and Q alone, without evaluating the positive subgoals",
		Header: []string{"batch |Δ|", "median maint (counting)", "median recompute", "speedup"},
	}
	rng := Rng(4)
	link := workload.RandomGraph(rng, s.Nodes/2, s.Edges/2)
	for _, k := range []int{1, 8, 32} {
		d := workload.Mixed(Rng(40+int64(k)), link, s.Nodes/2, k/2, k-k/2)
		cm, err := medianOf(s.Trials, func() func() error {
			e := CountingEngine(OnlyTriHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		rm, err := medianOf(s.Trials, func() func() error {
			e := RecomputeEngine(OnlyTriHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), dur(cm), dur(rm), ratio(cm, rm)})
	}
	return t
}

// RunE5 — aggregation maintenance (Example 6.2 / Algorithm 6.1).
func RunE5(s Scale) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "aggregation: min_cost_hop maintenance (Example 6.2, Algorithm 6.1)",
		Claim:  "only groups touched by ΔU are recomputed; MIN rescans only when the minimum leaves",
		Header: []string{"batch |Δ|", "median maint (counting)", "median recompute", "speedup"},
	}
	rng := Rng(5)
	link := workload.RandomWeightedGraph(rng, s.Nodes/2, s.Edges/2, 100)
	for _, k := range []int{1, 8, 32} {
		d := weightedMixed(Rng(50+int64(k)), link, s.Nodes/2, k)
		cm, err := medianOf(s.Trials, func() func() error {
			e := CountingEngine(MinCostHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		rm, err := medianOf(s.Trials, func() func() error {
			e := RecomputeEngine(MinCostHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), dur(cm), dur(rm), ratio(cm, rm)})
	}
	return t
}

// RunE6 — counting vs recompute as |Δ| sweeps toward |base|: the
// heuristic-of-inertia crossover (Section 1).
func RunE6(s Scale) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "counting vs recompute across |Δ|/|base| (Section 1's heuristic of inertia)",
		Claim:  "incremental wins by orders of magnitude for small Δ and loses near full-relation churn",
		Header: []string{"Δ fraction", "|Δ|", "counting", "recompute", "counting/recompute"},
	}
	rng := Rng(6)
	link := workload.RandomGraph(rng, s.Nodes, s.Edges)
	fractions := []float64{0.001, 0.01, 0.1, 0.5, 1.0}
	for _, f := range fractions {
		k := int(float64(link.Len()) * f)
		if k < 1 {
			k = 1
		}
		d := workload.SampleDeletes(Rng(60), link, k)
		cm, err := medianOf(s.Trials, func() func() error {
			e := CountingEngine(TriHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		rm, err := medianOf(s.Trials, func() func() error {
			e := RecomputeEngine(TriHopProgram, LinkDB(link.Clone()), eval.Duplicate)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			Pct(f), fmt.Sprint(k), dur(cm), dur(rm),
			fmt.Sprintf("%.2f", float64(cm)/float64(rm)),
		})
	}
	return t
}

// RunE7 — cost of tracking counts during view evaluation (Section 5).
func RunE7(s Scale) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "count-tracking cost at view build time (Section 5)",
		Claim:  "duplicate elimination can be augmented to count at no extra cost: counting evaluation is never slower than count-free duplicate elimination (negative = counting is cheaper, since the count-free pipeline still pays a collapse pass)",
		Header: []string{"program", "counting eval", "dup-elim eval (no counts)", "counting vs dup-elim"},
	}
	rng := Rng(7)
	link := workload.RandomGraph(rng, s.Nodes, s.Edges)
	wlink := workload.RandomWeightedGraph(rng, s.Nodes/2, s.Edges/2, 100)
	cases := []struct {
		name string
		prog string
		db   *eval.DB
	}{
		{"hop", HopProgram, LinkDB(link)},
		{"hop+tri_hop", TriHopProgram, LinkDB(link)},
		{"min_cost_hop", MinCostHopProgram, LinkDB(wlink)},
	}
	trials := s.Trials*2 + 3
	for _, c := range cases {
		withCounts, err := medianOf(trials, func() func() error {
			return func() error { Evaluate(c.prog, c.db, eval.Set, true); return nil }
		})
		if err != nil {
			panic(err)
		}
		withoutCounts, err := medianOf(trials, func() func() error {
			return func() error { Evaluate(c.prog, c.db, eval.Set, false); return nil }
		})
		if err != nil {
			panic(err)
		}
		overhead := (float64(withCounts)/float64(withoutCounts) - 1) * 100
		t.Rows = append(t.Rows, []string{
			c.name, dur(withCounts), dur(withoutCounts), fmt.Sprintf("%+.1f%%", overhead),
		})
	}
	return t
}

// RunE8 — DRed on recursive transitive closure vs recompute (Section 7,
// Theorem 7.1).
func RunE8(s Scale) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "DRed on transitive closure: deletions with alternative derivations (Section 7)",
		Claim:  "DRed beats recomputation for small deletions on large closures; recompute wins when most of the base dies",
		Header: []string{"deleted edges", "dred", "recompute", "dred/recompute", "overestimated", "rederived"},
	}
	t.Header = []string{"deleted edges", "dred p50", "dred min…max", "recompute p50", "p50 ratio", "overest p50"}
	// A sparse random digraph: the transitive closure is large relative to
	// the base and a *typical* deletion has a small affected cone — the
	// regime where incremental maintenance pays. The distribution is
	// bimodal: a minority of deletions hit the giant component and
	// invalidate most of the closure (dred min…max makes both modes
	// visible). The |base|/2 row shows the crossover where recompute wins.
	n, m := 2*s.Nodes, 5*s.Nodes/2
	link := workload.RandomGraph(Rng(81), n, m)
	trials := s.Trials*2 + 1
	for _, k := range []int{1, 4, 16, m / 2} {
		var dredRuns []e8Sample
		var reco []time.Duration
		for trial := 0; trial < trials; trial++ {
			d := workload.SampleDeletes(Rng(int64(800+trial)), link, k)
			e := DRedEngine(TCProgram, LinkDB(link.Clone()))
			warmDRed(e, d)
			el, err := timeIt(func() error { _, err := e.Apply(DeltaOf(d)); return err })
			if err != nil {
				panic(err)
			}
			dredRuns = append(dredRuns, e8Sample{el, e.Stats().(dred.Stats).Overestimated})

			r := RecomputeEngine(TCProgram, LinkDB(link.Clone()), eval.Set)
			el, err = timeIt(func() error { _, err := r.Apply(DeltaOf(d)); return err })
			if err != nil {
				panic(err)
			}
			reco = append(reco, el)
		}
		sortSamples(dredRuns)
		sortDurations(reco)
		p50, rp50 := dredRuns[len(dredRuns)/2], reco[len(reco)/2]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), dur(p50.d),
			fmt.Sprintf("%s…%s", dur(dredRuns[0].d), dur(dredRuns[len(dredRuns)-1].d)),
			dur(rp50), fmt.Sprintf("%.2f", float64(p50.d)/float64(rp50)),
			fmt.Sprint(p50.over),
		})
	}
	return t
}

func sortDurations(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// e8Sample is one timed DRed trial of experiment E8.
type e8Sample struct {
	d    time.Duration
	over int
}

// sortSamples orders E8 samples by duration (insertion sort; tiny n).
func sortSamples(ss []e8Sample) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].d < ss[j-1].d; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// warmDRed applies d and its inverse once so lazy index builds and
// allocator warm-up do not bias the timed run; the engine's set state is
// unchanged afterwards.
func warmDRed(e *dred.Engine, d *relation.Relation) {
	if _, err := e.Apply(DeltaOf(d)); err != nil {
		panic(err)
	}
	if _, err := e.Apply(DeltaOf(d.Negate())); err != nil {
		panic(err)
	}
}

// RunE9 — DRed vs the fragmented PF baseline (Section 2's order-of-
// magnitude claim).
func RunE9(s Scale) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "DRed vs PF-style fragmented propagation ([HD92], Section 2)",
		Claim:  "PF fragments computation and re-attempts rederivation per change; DRed recomputes deleted tuples once — up to an order of magnitude apart",
		Header: []string{"engine", "batch", "median maint", "rule firings", "rederived", "vs dred"},
	}
	n, m := s.Nodes, 3*s.Nodes/2
	link := workload.RandomGraph(Rng(91), n, m)
	k := 16
	// Clustered deletions overlap in their effect cones: per-change
	// propagation rederives the same region again and again.
	d := workload.ClusteredDeletes(link, k)

	var dredTime time.Duration
	var rows [][]string
	{
		var firings, reder int
		med, err := medianOf(s.Trials, func() func() error {
			e := DRedEngine(TCProgram, LinkDB(link.Clone()))
			warmDRed(e, d)
			return func() error {
				_, err := e.Apply(DeltaOf(d))
				st := e.Stats().(dred.Stats)
				firings, reder = st.RuleFirings, st.Rederived
				return err
			}
		})
		if err != nil {
			panic(err)
		}
		dredTime = med
		rows = append(rows, []string{"dred (one pass)", fmt.Sprintf("%d dels", k), dur(med), fmt.Sprint(firings), fmt.Sprint(reder), "1.0x"})
	}
	for _, frag := range []bool{false, true} {
		name := "pf (per-relation)"
		if frag {
			name = "pf (per-tuple)"
		}
		var firings, reder int
		med, err := medianOf(s.Trials, func() func() error {
			e := PFEngine(TCProgram, LinkDB(link.Clone()), frag)
			// Warm the lazy indexes with a no-op round trip.
			if _, err := e.Apply(DeltaOf(d)); err != nil {
				panic(err)
			}
			if _, err := e.Apply(DeltaOf(d.Negate())); err != nil {
				panic(err)
			}
			return func() error {
				_, err := e.Apply(DeltaOf(d))
				st := e.Stats().(pf.Stats)
				firings, reder = st.RuleFirings, st.Rederived
				return err
			}
		})
		if err != nil {
			panic(err)
		}
		rows = append(rows, []string{name, fmt.Sprintf("%d dels", k), dur(med), fmt.Sprint(firings), fmt.Sprint(reder),
			fmt.Sprintf("%.1fx", float64(med)/float64(dredTime))})
	}
	t.Rows = rows
	return t
}

// RunE10 — view-definition changes (Section 7's rule insertion/deletion).
func RunE10(s Scale) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "rule insertion/deletion maintenance (Section 7)",
		Claim:  "DRed maintains views across definition changes without recomputing from scratch",
		Header: []string{"operation", "incremental (dred)", "rematerialize", "speedup"},
	}
	rng := Rng(10)
	link := workload.RandomGraph(rng, s.Nodes/2, s.Edges/3)
	hyper := workload.RandomGraph(rng, s.Nodes/2, 8)
	db := LinkDB(link)
	db.Put("hyperlink", hyper)

	addRule := MustRules(`tc(X,Y) :- hyperlink(X,Y).`).Rules[0]
	progWith := `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
		tc(X,Y) :- hyperlink(X,Y).
	`

	// AddRule vs rebuilding the three-rule program.
	am, err := medianOf(s.Trials, func() func() error {
		e := DRedEngine(TCProgram, db.Clone())
		return func() error { _, err := e.AddRule(addRule); return err }
	})
	if err != nil {
		panic(err)
	}
	rm, err := medianOf(s.Trials, func() func() error {
		work := db.Clone()
		return func() error {
			_ = DRedEngine(progWith, work)
			return nil
		}
	})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, []string{"add rule", dur(am), dur(rm), ratio(am, rm)})

	// RemoveRule vs rebuilding the two-rule program.
	dm, err := medianOf(s.Trials, func() func() error {
		e := DRedEngine(progWith, db.Clone())
		return func() error { _, err := e.RemoveRule(2); return err }
	})
	if err != nil {
		panic(err)
	}
	rm2, err := medianOf(s.Trials, func() func() error {
		work := db.Clone()
		return func() error {
			_ = DRedEngine(TCProgram, work)
			return nil
		}
	})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, []string{"remove rule", dur(dm), dur(rm2), ratio(dm, rm2)})
	return t
}

// RunE12 — insertion-only maintenance on recursive views: semi-naive
// propagation vs full re-evaluation (Section 7's observation that
// insertions need only semi-naive evaluation).
func RunE12(s Scale) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "insertion-only maintenance of transitive closure (Section 7)",
		Claim:  "a semi-naive pass suffices for insertions; no deletion machinery runs",
		Header: []string{"inserted edges", "dred", "recompute", "speedup", "overestimated"},
	}
	rng := Rng(12)
	link := workload.RandomGraph(rng, s.Nodes/2, s.Edges/4)
	for _, k := range []int{1, 8, 32} {
		d := workload.SampleInserts(Rng(120+int64(k)), link, s.Nodes/2, k)
		var over int
		dm, err := medianOf(s.Trials, func() func() error {
			e := DRedEngine(TCProgram, LinkDB(link.Clone()))
			warmDRed(e, d) // apply + undo: warms the lazy indexes
			return func() error {
				_, err := e.Apply(DeltaOf(d))
				over = e.Stats().(dred.Stats).Overestimated
				return err
			}
		})
		if err != nil {
			panic(err)
		}
		rm, err := medianOf(s.Trials, func() func() error {
			e := RecomputeEngine(TCProgram, LinkDB(link.Clone()), eval.Set)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), dur(dm), dur(rm), ratio(dm, rm), fmt.Sprint(over)})
	}
	return t
}

// weightedMixed builds a mixed delta for a weighted link relation.
func weightedMixed(rng interface {
	Intn(int) int
	Int63() int64
}, link *relation.Relation, nodes, k int) *relation.Relation {
	d := workload.SampleDeletes(Rng(rng.Int63()), link, k/2)
	ins := workload.RandomWeightedGraph(Rng(rng.Int63()), nodes, k-k/2, 100)
	ins.Each(func(r relation.Row) {
		if !link.Has(r.Tuple) && d.Count(r.Tuple) == 0 {
			d.Add(r.Tuple, 1)
		}
	})
	return d
}

// RunE13 — counting on recursive views (Section 8's future work,
// [GKM92]): on acyclic data, counted delta fixpoints maintain exact
// derivation (path) counts; compared against DRed and recompute.
func RunE13(s Scale) *Table {
	t := &Table{
		ID:     "E13",
		Title:  "recursive counting on DAG transitive closure ([GKM92], Section 8)",
		Claim:  "counting extends to recursive views with finite counts; deltas quiesce on acyclic derivations",
		Header: []string{"deleted edges", "counting", "dred", "recompute", "counting/dred"},
	}
	layers, width := s.Nodes/20, 6
	if layers < 5 {
		layers = 5
	}
	link := workload.LayeredDAG(Rng(130), layers, width, 2)
	cfg := counting.Config{Semantics: eval.Duplicate, AllowRecursion: true, MaxIterations: 10 * layers}
	prog := MustRules(TCProgram)
	for _, k := range []int{1, 4, 16} {
		d := workload.SampleDeletes(Rng(131+int64(k)), link, k)
		cm, err := medianOf(s.Trials, func() func() error {
			e, err := counting.NewWithConfig(prog, LinkDB(link.Clone()), cfg)
			if err != nil {
				panic(err)
			}
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		dm, err := medianOf(s.Trials, func() func() error {
			e := DRedEngine(TCProgram, LinkDB(link.Clone()))
			warmDRed(e, d)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		rm, err := medianOf(s.Trials, func() func() error {
			e := RecomputeEngine(TCProgram, LinkDB(link.Clone()), eval.Set)
			return func() error { _, err := e.Apply(DeltaOf(d)); return err }
		})
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), dur(cm), dur(dm), dur(rm),
			fmt.Sprintf("%.2f", float64(cm)/float64(dm)),
		})
	}
	return t
}
