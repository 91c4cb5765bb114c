// Package experiments is the paper's evaluation as Go benchmarks: E1–E10
// and E12 (EXPERIMENTS.md), one table of scenarios walked two ways.
// Each BenchmarkE* times every cell of its table (one engine, variant or
// batch size) and reports the table's count columns with ReportMetric;
// TestRunAllSmoke runs every cell once at a small scale, pins those
// counts as goldens and asserts the shape each claim states. E11 is the
// oracle's TestProperty* seed selections in the root oracle_test.go.
//
//	go test -bench 'E[0-9]' -run '^$' ./internal/experiments
package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/value"
	"ivm/internal/workload"
)

// Programs used across the experiments.
const (
	hopProgram = `hop(X,Y) :- link(X,Z), link(Z,Y).`

	triHopProgram = `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
	`

	onlyTriHopProgram = `
		hop(X,Y)          :- link(X,Z), link(Z,Y).
		tri_hop(X,Y)      :- hop(X,Z), link(Z,Y).
		only_tri_hop(X,Y) :- tri_hop(X,Y), !hop(X,Y).
	`

	minCostHopProgram = `
		hop(S,D,C1+C2)      :- link(S,I,C1), link(I,D,C2).
		min_cost_hop(S,D,M) :- groupby(hop(S,D,C), [S,D], M = min(C)).
	`

	tcProgram = `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`
)

// scale sizes the experiments' graphs: the benchmarks run at benchScale,
// TestRunAllSmoke at smokeScale.
type scale struct{ nodes, edges int }

var (
	benchScale = scale{nodes: 150, edges: 900}
	smokeScale = scale{nodes: 60, edges: 240}
)

// A cell is one engine, variant or batch size of an experiment's table.
// prepare builds its start state.
type cell struct {
	name    string
	prepare func() run
}

// A run is a prepared cell: step is the measured work; undo, nil when
// step changes no state, takes the state back to where step found it, so
// that every step does the same work; counts, when not nil, reads the
// table's count columns after a step.
type run struct {
	step, undo func() error
	counts     func() map[string]int
}

// engine is what a maintenance cell applies its batch to.
type engine interface {
	Apply(map[string]*relation.Relation) (map[string]*relation.Relation, error)
}

// A builder makes one of a table's engines over a base, and reads the
// count columns the table shows for it.
type builder struct {
	name   string
	build  func(*eval.DB) engine
	counts func(engine) map[string]int
}

// A batch is one base delta of a table's sweep.
type batch struct {
	name string
	d    *relation.Relation
}

// grid is one cell per engine and batch: each applies its batch to its
// engine and undoes it by applying the batch's inverse.
func grid(db *eval.DB, engines []builder, batches []batch) []cell {
	var cells []cell
	for _, eb := range engines {
		for _, bt := range batches {
			name := eb.name
			if bt.name != "" {
				name += "/" + bt.name
			}
			cells = append(cells, cell{name, func() run {
				e := eb.build(db)
				r := run{
					step: func() error { _, err := e.Apply(map[string]*relation.Relation{"link": bt.d}); return err },
					undo: func() error { _, err := e.Apply(map[string]*relation.Relation{"link": bt.d.Negate()}); return err },
				}
				if eb.counts != nil {
					r.counts = func() map[string]int { return eb.counts(e) }
				}
				return r
			}})
		}
	}
	return cells
}

// views builds src's engine under alg.
func views(alg dred.Algorithm, sem eval.Semantics, src string) func(*eval.DB) engine {
	prog := rules(src)
	return func(db *eval.DB) engine { return mustEngine(prog, db, alg, sem) }
}

func mustEngine(prog *datalog.Program, db *eval.DB, alg dred.Algorithm, sem eval.Semantics) *dred.Engine {
	e, err := dred.NewWithConfig(prog, db, dred.Config{Algorithm: alg, Semantics: sem})
	if err != nil {
		panic(err)
	}
	return e
}

// versus is the counting and recompute engines of the sweeps that pit
// them against each other under duplicate semantics.
func versus(src string) []builder {
	return []builder{
		{name: "counting", build: views(dred.Counting, eval.Duplicate, src)},
		{name: "recompute", build: views(dred.Recompute, eval.Duplicate, src)},
	}
}

// dredWork reads DRed's step counts.
func dredWork(e engine) map[string]int {
	st := e.(*dred.Engine).Stats()
	return map[string]int{"overestimated/op": st.Overestimated, "rederived/op": st.Rederived, "rule-firings/op": st.RuleFirings}
}

// e1 — Example 1.1 at scale: a single deletion under the hop view.
// Claim: counting deletes exactly the tuples whose last derivation died;
// both incremental engines beat recomputation.
func e1(s scale) []cell {
	link := workload.RandomGraph(rng(1), s.nodes, s.edges)
	hop := func(e engine) map[string]int {
		return map[string]int{"hop-rows": e.(*dred.Engine).Relation("hop").Len()}
	}
	return grid(linkDB(link), []builder{
		{"recompute", views(dred.Recompute, eval.Duplicate, hopProgram), hop},
		{"counting", views(dred.Counting, eval.Duplicate, hopProgram), hop},
		{"dred", views(dred.DRed, eval.Set, hopProgram), hop},
	}, []batch{{"", workload.SampleDeletes(rng(11), link, 1)}})
}

// e2 — Example 4.2 at scale: hop + tri_hop under mixed batches. Claim:
// delta rules propagate stratum by stratum; cost tracks |Δ|, not |view|.
func e2(s scale) []cell {
	link := workload.RandomGraph(rng(2), s.nodes, s.edges)
	var batches []batch
	for _, k := range []int{1, 4, 16, 64} {
		batches = append(batches, batch{fmt.Sprintf("batch=%d", k), workload.Mixed(rng(20+int64(k)), link, s.nodes, k/2, k-k/2)})
	}
	return grid(linkDB(link), versus(triHopProgram), batches)
}

// e3 — statement (2) of Algorithm 4.1 (Example 5.1). Claim: without it
// every count change cascades; with it, unchanged set images stop
// propagation. Without statement (2) a set view keeps full duplicate
// counts: duplicate semantics over the same sets. The graph is dense, so
// most hop tuples have alternative derivations.
func e3(s scale) []cell {
	link := workload.RandomGraph(rng(3), s.nodes/4, s.edges/2)
	work := func(e engine) map[string]int {
		st := e.(*dred.Engine).Stats()
		return map[string]int{"delta-rules/op": st.DeltaRulesEvaluated, "delta-tuples/op": st.DeltaTuples, "cascades-stopped/op": st.CascadeStopped}
	}
	return grid(linkDB(link), []builder{
		{"with-stmt2", views(dred.Counting, eval.Set, triHopProgram), work},
		{"without-stmt2", views(dred.Counting, eval.Duplicate, triHopProgram), work},
	}, []batch{{"", workload.SampleDeletes(rng(33), link, 4)}})
}

// e4 — negation, only_tri_hop (Example 6.1, Definition 6.1). Claim: Δ(¬q)
// is computed from ΔQ and Q alone.
func e4(s scale) []cell {
	link := workload.RandomGraph(rng(4), s.nodes/2, s.edges/2)
	var batches []batch
	for _, k := range []int{1, 8, 32} {
		batches = append(batches, batch{fmt.Sprintf("batch=%d", k), workload.Mixed(rng(40+int64(k)), link, s.nodes/2, k/2, k-k/2)})
	}
	return grid(linkDB(link), versus(onlyTriHopProgram), batches)
}

// e5 — aggregation, min_cost_hop (Example 6.2, Algorithm 6.1). Claim: only
// the groups ΔU touches are updated, MIN too when its minimum leaves.
func e5(s scale) []cell {
	link := workload.RandomWeightedGraph(rng(5), s.nodes/2, s.edges/2, 100)
	var batches []batch
	for _, k := range []int{1, 8, 32} {
		batches = append(batches, batch{fmt.Sprintf("batch=%d", k), weightedMixed(rng(50+int64(k)), link, s.nodes/2, k)})
	}
	return grid(linkDB(link), versus(minCostHopProgram), batches)
}

// e6 — Section 1's heuristic of inertia: counting against recompute as
// |Δ| sweeps toward |base|. Claim: incremental wins by orders of
// magnitude for small Δ and loses near full-relation churn.
func e6(s scale) []cell {
	link := workload.RandomGraph(rng(6), s.nodes, s.edges)
	var batches []batch
	for _, f := range []float64{0.001, 0.01, 0.1, 0.5, 1} {
		k := max(int(float64(link.Len())*f), 1)
		batches = append(batches, batch{fmt.Sprintf("delta=%.1f%%", f*100), workload.SampleDeletes(rng(60), link, k)})
	}
	return grid(linkDB(link), versus(triHopProgram), batches)
}

// e7 — Section 5: the cost of tracking counts while a view is built.
// Claim: duplicate elimination can count the duplicates it eliminates at
// no extra cost. The count-free cells build the view and collapse each
// derived relation to its set image.
func e7(s scale) []cell {
	r := rng(7)
	link := linkDB(workload.RandomGraph(r, s.nodes, s.edges))
	wlink := linkDB(workload.RandomWeightedGraph(r, s.nodes/2, s.edges/2, 100))
	var cells []cell
	for _, counts := range []bool{true, false} {
		for _, p := range []struct {
			name, src string
			db        *eval.DB
		}{{"hop", hopProgram, link}, {"hop+tri_hop", triHopProgram, link}, {"min_cost_hop", minCostHopProgram, wlink}} {
			name := "with-counts/" + p.name
			if !counts {
				name = "without-counts/" + p.name
			}
			prog := rules(p.src)
			cells = append(cells, cell{name, func() run {
				return run{step: func() error {
					e := mustEngine(prog, p.db, dred.Counting, eval.Set)
					if !counts {
						for pred := range prog.DerivedPreds() {
							e.Relation(pred).ToSet()
						}
					}
					return nil
				}}
			}})
		}
	}
	return cells
}

// e8 — Section 7, Theorem 7.1: DRed on transitive closure against
// recompute. Claim: DRed wins for small deletions on a large closure;
// recompute wins when most of the base dies. A sparse digraph makes the
// closure large next to its base. The drawn edges sit on its giant
// component, where one deletion overestimates most of the closure;
// deleted=narrowest is the edge whose deletion can overestimate least.
func e8(s scale) []cell {
	n, m := 2*s.nodes, 5*s.nodes/2
	link := workload.RandomGraph(rng(81), n, m)
	var batches []batch
	for _, k := range []int{1, 4, 16, m / 2} {
		batches = append(batches, batch{fmt.Sprintf("deleted=%d", k), workload.SampleDeletes(rng(800), link, k)})
	}
	batches = append(batches, batch{"deleted=narrowest", narrowestEdge(link)})
	return grid(linkDB(link), []builder{
		{"dred", views(dred.DRed, eval.Set, tcProgram), dredWork},
		{name: "recompute", build: views(dred.Recompute, eval.Set, tcProgram)},
	}, batches)
}

// narrowestEdge is the deletion of the edge (u,v) of link that minimises
// |ancestors(u)|·|descendants(v)|, each counting its own node: an upper
// bound on the closure pairs its deletion can overestimate. Ties go to
// the first such edge in tuple order.
func narrowestEdge(link *relation.Relation) *relation.Relation {
	succ, pred := map[value.Value][]value.Value{}, map[value.Value][]value.Value{}
	rows := link.SortedRows()
	for _, r := range rows {
		succ[r.Tuple[0]] = append(succ[r.Tuple[0]], r.Tuple[1])
		pred[r.Tuple[1]] = append(pred[r.Tuple[1]], r.Tuple[0])
	}
	reach := func(adj map[value.Value][]value.Value, from value.Value) int {
		seen := map[value.Value]bool{from: true}
		for stack := []value.Value{from}; len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		return len(seen)
	}
	best, least := rows[0], -1
	for _, r := range rows {
		if c := reach(pred, r.Tuple[0]) * reach(succ, r.Tuple[1]); least < 0 || c < least {
			best, least = r, c
		}
	}
	d := relation.New(2)
	d.Add(best.Tuple, -1)
	return d
}

// e9 — Section 2: DRed against [HD92]'s propagation/filtration. Claim: PF
// fragments the computation and rederives the same tuples again and
// again, up to an order of magnitude more work. The 16 deletions are
// clustered, so their effect cones overlap.
func e9(s scale) []cell {
	link := workload.RandomGraph(rng(91), s.nodes, 3*s.nodes/2)
	prog := rules(tcProgram)
	pf := func(perTuple bool) func(*eval.DB) engine {
		return func(db *eval.DB) engine { return mustPF(prog, db, perTuple) }
	}
	pfWork := func(e engine) map[string]int {
		st := e.(*pfEngine).last
		return map[string]int{"rederived/op": st.Rederived, "rule-firings/op": st.RuleFirings}
	}
	return grid(linkDB(link), []builder{
		{"dred", views(dred.DRed, eval.Set, tcProgram), dredWork},
		{"pf-per-relation", pf(false), pfWork},
		{"pf-per-tuple", pf(true), pfWork},
	}, []batch{{"", clusteredDeletes(link, 16)}})
}

// e10 — Section 7's rule insertion and deletion. Claim: DRed maintains
// the views across a definition change without recomputing them.
func e10(s scale) []cell {
	r := rng(10)
	db := linkDB(workload.RandomGraph(r, s.nodes/2, s.edges/3))
	db.Put("hyperlink", workload.RandomGraph(r, s.nodes/2, 8))
	withHyper := tcProgram + `tc(X,Y) :- hyperlink(X,Y).`
	added := rules(withHyper).Rules[2]
	edit := func(name, src string, do, undo func(*dred.Engine) error) cell {
		return cell{name, func() run {
			e := mustEngine(rules(src), db, dred.DRed, eval.Set)
			return run{step: func() error { return do(e) }, undo: func() error { return undo(e) }}
		}}
	}
	add := func(e *dred.Engine) error { _, err := e.AddRule(added); return err }
	remove := func(e *dred.Engine) error { _, err := e.RemoveRule(2); return err }
	rematerialize := func(name, src string) cell {
		prog := rules(src)
		return cell{name, func() run {
			return run{step: func() error { mustEngine(prog, db, dred.DRed, eval.Set); return nil }}
		}}
	}
	return []cell{
		edit("add-rule/dred", tcProgram, add, remove),
		rematerialize("add-rule/rematerialize", withHyper),
		edit("remove-rule/dred", withHyper, remove, add),
		rematerialize("remove-rule/rematerialize", tcProgram),
	}
}

// e12 — Section 7: insertions into a recursive view. Claim: a semi-naive
// pass suffices; no deletion machinery runs.
func e12(s scale) []cell {
	link := workload.RandomGraph(rng(12), s.nodes/2, s.edges/4)
	var batches []batch
	for _, k := range []int{1, 8, 32} {
		batches = append(batches, batch{fmt.Sprintf("inserted=%d", k), workload.SampleInserts(rng(120+int64(k)), link, s.nodes/2, k)})
	}
	return grid(linkDB(link), []builder{
		{"dred", views(dred.DRed, eval.Set, tcProgram), dredWork},
		{name: "recompute", build: views(dred.Recompute, eval.Set, tcProgram)},
	}, batches)
}

// experiments is the table both tests walk.
var experiments = []struct {
	id    string
	cells func(scale) []cell
}{
	{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5}, {"E6", e6},
	{"E7", e7}, {"E8", e8}, {"E9", e9}, {"E10", e10}, {"E12", e12},
}

// bench times each cell's step, with its undo off the clock, after one
// untimed step whose counts it reports.
func bench(b *testing.B, cells func(scale) []cell) {
	for _, c := range cells(benchScale) {
		b.Run(c.name, func(b *testing.B) {
			r := c.prepare()
			counts, err := once(r)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.step(); err != nil {
					b.Fatal(err)
				}
				if r.undo != nil {
					b.StopTimer()
					if err := r.undo(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			for unit, n := range counts {
				b.ReportMetric(float64(n), unit)
			}
		})
	}
}

// once steps r, reads its counts and undoes the step.
func once(r run) (map[string]int, error) {
	if err := r.step(); err != nil {
		return nil, err
	}
	var counts map[string]int
	if r.counts != nil {
		counts = r.counts()
	}
	if r.undo != nil {
		return counts, r.undo()
	}
	return counts, nil
}

func BenchmarkE1HopMaintenance(b *testing.B)      { bench(b, e1) }
func BenchmarkE2TriHop(b *testing.B)              { bench(b, e2) }
func BenchmarkE3SetOptimization(b *testing.B)     { bench(b, e3) }
func BenchmarkE4Negation(b *testing.B)            { bench(b, e4) }
func BenchmarkE5Aggregation(b *testing.B)         { bench(b, e5) }
func BenchmarkE6CountingVsRecompute(b *testing.B) { bench(b, e6) }
func BenchmarkE7CountOverhead(b *testing.B)       { bench(b, e7) }
func BenchmarkE8DRedTC(b *testing.B)              { bench(b, e8) }
func BenchmarkE9DRedVsPF(b *testing.B)            { bench(b, e9) }
func BenchmarkE10RuleChange(b *testing.B)         { bench(b, e10) }
func BenchmarkE12InsertOnly(b *testing.B)         { bench(b, e12) }

// goldens are the count columns at smokeScale, by experiment and cell.
var goldens = map[string]map[string]int{
	"E1/recompute": {"hop-rows": 810},
	"E1/counting":  {"hop-rows": 810},
	"E1/dred":      {"hop-rows": 810},

	"E3/with-stmt2":    {"delta-rules/op": 4, "delta-tuples/op": 105, "cascades-stopped/op": 1},
	"E3/without-stmt2": {"delta-rules/op": 4, "delta-tuples/op": 249, "cascades-stopped/op": 0},

	"E8/dred/deleted=1":         {"overestimated/op": 3213, "rederived/op": 2963, "rule-firings/op": 40},
	"E8/dred/deleted=4":         {"overestimated/op": 3214, "rederived/op": 2700, "rule-firings/op": 36},
	"E8/dred/deleted=16":        {"overestimated/op": 3251, "rederived/op": 2335, "rule-firings/op": 36},
	"E8/dred/deleted=75":        {"overestimated/op": 3331, "rederived/op": 464, "rule-firings/op": 28},
	"E8/dred/deleted=narrowest": {"overestimated/op": 1, "rederived/op": 0, "rule-firings/op": 5},

	"E9/dred":            {"overestimated/op": 1730, "rederived/op": 702, "rule-firings/op": 20},
	"E9/pf-per-relation": {"rederived/op": 702, "rule-firings/op": 20},
	"E9/pf-per-tuple":    {"rederived/op": 7321, "rule-firings/op": 223},

	"E12/dred/inserted=1":  {"overestimated/op": 0, "rederived/op": 0, "rule-firings/op": 4},
	"E12/dred/inserted=8":  {"overestimated/op": 0, "rederived/op": 0, "rule-firings/op": 4},
	"E12/dred/inserted=32": {"overestimated/op": 0, "rederived/op": 0, "rule-firings/op": 8},
}

// TestRunAllSmoke runs every cell twice at smokeScale, undoing the first
// run: its counts must repeat, equal the goldens, and have the shape
// each claim states.
func TestRunAllSmoke(t *testing.T) {
	got := map[string]map[string]int{}
	for _, x := range experiments {
		for _, c := range x.cells(smokeScale) {
			key := x.id + "/" + c.name
			r := c.prepare()
			first, err := once(r)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			again, err := once(r)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !maps.Equal(first, again) {
				t.Errorf("%s: counts %v, then %v after an undo", key, first, again)
			}
			if first != nil {
				got[key] = first
			}
		}
	}
	for key, want := range goldens {
		if !maps.Equal(got[key], want) {
			t.Errorf("%s: counts %v, golden %v", key, got[key], want)
		}
	}
	for key, counts := range got {
		if goldens[key] == nil {
			t.Errorf("%s: counts %v have no golden", key, counts)
		}
	}

	if a, b, c := got["E1/recompute"]["hop-rows"], got["E1/counting"]["hop-rows"], got["E1/dred"]["hop-rows"]; a != b || b != c {
		t.Errorf("E1: |hop| %d (recompute), %d (counting), %d (dred): the engines disagree", a, b, c)
	}
	with, without := got["E3/with-stmt2"], got["E3/without-stmt2"]
	if with["delta-tuples/op"] >= without["delta-tuples/op"] || with["cascades-stopped/op"] < 1 {
		t.Errorf("E3: with statement (2) %v, without %v: want fewer Δ tuples and a cascade stopped", with, without)
	}
	if narrow, drawn := got["E8/dred/deleted=narrowest"], got["E8/dred/deleted=1"]; narrow["overestimated/op"] >= drawn["overestimated/op"] {
		t.Errorf("E8: the narrowest edge overestimated %v, the drawn one %v: want fewer", narrow, drawn)
	}
	for key, counts := range got {
		if strings.HasPrefix(key, "E8/") && counts["rederived/op"] > counts["overestimated/op"] {
			t.Errorf("%s: rederived more than it overestimated: %v", key, counts)
		}
		if strings.HasPrefix(key, "E12/") && counts["overestimated/op"] != 0 {
			t.Errorf("%s: an insertion overestimated: %v", key, counts)
		}
	}
	dw, pt := got["E9/dred"], got["E9/pf-per-tuple"]
	if pt["rule-firings/op"] <= dw["rule-firings/op"] || pt["rederived/op"] <= dw["rederived/op"] {
		t.Errorf("E9: pf per-tuple %v against dred %v: want more firings and more rederived", pt, dw)
	}
}

func rules(src string) *datalog.Program {
	prog, err := parser.ParseRules(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func linkDB(link *relation.Relation) *eval.DB {
	db := eval.NewDB()
	db.Put("link", link)
	return db
}

// weightedMixed is a mixed batch over a weighted link relation: k/2
// deletions and up to k-k/2 new edges.
func weightedMixed(r *rand.Rand, link *relation.Relation, nodes, k int) *relation.Relation {
	d := workload.SampleDeletes(rng(r.Int63()), link, k/2)
	ins := workload.RandomWeightedGraph(rng(r.Int63()), nodes, k-k/2, 100)
	ins.Each(func(row relation.Row) {
		if !link.Has(row.Tuple) && d.Count(row.Tuple) == 0 {
			d.Add(row.Tuple, 1)
		}
	})
	return d
}

// clusteredDeletes deletes k consecutive tuples (in sorted order) from
// the middle of rel: overlapping effect regions, the worst case for
// per-change fragmented propagation (the PF baseline).
func clusteredDeletes(rel *relation.Relation, k int) *relation.Relation {
	rows := rel.SortedRows()
	if k > len(rows) {
		k = len(rows)
	}
	start := (len(rows) - k) / 2
	out := relation.New(rel.Arity())
	for _, row := range rows[start : start+k] {
		out.Add(row.Tuple, -1)
	}
	return out
}
