package eval

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ivm/internal/datalog"
	"ivm/internal/metrics"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// fillSeq populates a fresh arity-ar relation with n rows whose column 0
// is unique ("k<i>") and remaining columns cycle through mod values.
func fillSeq(ar, n, mod int) *relation.Relation {
	r := relation.New(ar)
	for i := 0; i < n; i++ {
		row := make([]any, ar)
		row[0] = "k" + itoa(i)
		for c := 1; c < ar; c++ {
			row[c] = "v" + itoa(i%mod)
		}
		r.Add(value.T(row...), 1)
	}
	return r
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [12]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func TestPlanSingleLiteralBodyIsOneScan(t *testing.T) {
	prog, _ := parseProgram(t, `copy(X,Y) :- link(X,Y).`)
	link := fillSeq(2, 10, 10)
	plan, err := PlanRule(prog.Rules[0], []Source{{Rel: link}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Kind != AccessScan {
		t.Fatalf("want a single scan step, got %s", plan.Describe(prog.Rules[0]))
	}
	out := relation.New(2)
	if err := EvalPlan(prog.Rules[0], []Source{{Rel: link}}, plan, out, nil); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("planned copy produced %d rows, want 10", out.Len())
	}
}

func TestPlanAllFilterRuleFails(t *testing.T) {
	// A body of only condition literals can never bind X.
	prog, _ := parseProgram(t, `p(X) :- q(X), X > 1.`)
	rule := prog.Rules[0]
	rule.Body = rule.Body[1:] // strip the join, leaving the bare filter
	_, err := PlanRule(rule, []Source{{}}, -1)
	if err == nil || !strings.Contains(err.Error(), "filters with unbound variables") {
		t.Fatalf("PlanRule err = %v, want the unbound-filter error", err)
	}
}

func TestPlanGroundFilterOnlyBody(t *testing.T) {
	// Filters with no variables are ready immediately; a rule with a
	// ground head and only such filters plans to pure filter steps.
	prog, _ := parseProgram(t, `p(1) :- 1 < 2, 3 > 2.`)
	plan, err := PlanRule(prog.Rules[0], []Source{{}, {}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Steps {
		if st.Kind != AccessFilter {
			t.Fatalf("want only filter steps, got %s", plan.Describe(prog.Rules[0]))
		}
	}
	out := relation.New(1)
	if err := EvalPlan(prog.Rules[0], []Source{{}, {}}, plan, out, nil); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("ground rule emitted %d rows, want 1", out.Len())
	}
}

func TestPlanAggregateInDeltaPositionPinnedFirst(t *testing.T) {
	prog, _ := parseProgram(t, `m(S,M) :- groupby(u(S,C), [S], M = sum(C)), big(S).`)
	rule := prog.Rules[0]
	dT := relation.New(2) // ΔT: changed group rows
	dT.Add(value.T("s1", int64(7)), 1)
	big := fillSeq(1, 50, 50)
	srcs := []Source{{Rel: dT}, {Rel: big}}
	plan, err := PlanRule(rule, srcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 || plan.Steps[0].Lit != 0 {
		t.Fatalf("aggregate Δ-literal not pinned first: %s", plan.Describe(rule))
	}
	if !strings.HasPrefix(plan.Describe(rule), "Δ:") {
		t.Fatalf("Describe does not mark the pinned step: %s", plan.Describe(rule))
	}
	// The second step joins big(S) with S bound — a keyed access.
	if k := plan.Steps[1].Kind; k != AccessPoint {
		t.Fatalf("bound unary join should be a point lookup, got %v", k)
	}
}

func TestPlanNegationOrderedAfterBindingJoin(t *testing.T) {
	// blocked(X,Y) binds nothing; the planner must hold the negation
	// until link(X,Y) has bound X and Y.
	prog, _ := parseProgram(t, `ok(X,Y) :- !blocked(X,Y), link(X,Y).`)
	rule := prog.Rules[0]
	blocked := relation.New(2)
	blocked.Add(value.T("a", "b"), 1)
	link := relation.New(2)
	link.Add(value.T("a", "b"), 1)
	link.Add(value.T("a", "c"), 1)
	srcs := []Source{{Rel: blocked.ToSet()}, {Rel: link}}
	plan, err := PlanRule(rule, srcs, -1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Lit != 1 || plan.Steps[1].Lit != 0 {
		t.Fatalf("negation not deferred past its binding join: %s", plan.Describe(rule))
	}
	if plan.Steps[1].Kind != AccessNegFilter {
		t.Fatalf("negation step kind = %v, want AccessNegFilter", plan.Steps[1].Kind)
	}
	out := relation.New(2)
	if err := EvalPlan(rule, srcs, plan, out, nil); err != nil {
		t.Fatal(err)
	}
	wantCounts(t, out, map[string]int64{"a,c": 1})
}

func TestPlanNegationNeverBoundFails(t *testing.T) {
	// datalog.Validate rejects unsafe negation, so parse without
	// validating: PlanRule must still fail defensively.
	prog, err := parser.ParseRules(`ok(X) :- link(X,X), !blocked(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	rule := prog.Rules[0]
	// Z appears only under the negation: no join can ever bind it.
	link := relation.New(2)
	blocked := relation.New(2)
	srcs := []Source{{Rel: link}, {Rel: blocked}}
	if _, err := PlanRule(rule, srcs, -1); err == nil {
		t.Fatal("planner accepted a negation with a variable no join binds")
	}
}

func TestPlanPrefersLowFanoutSource(t *testing.T) {
	// hub(X,Y): 4 distinct X fanning out to ~250 Y each (small Len, huge
	// fan-out). flat(X,Z): 2000 rows, X unique (large Len, fan-out 1).
	// With X bound by Δreq, the planner must probe flat before hub, though
	// hub is the smaller relation.
	prog, _ := parseProgram(t, `out(Y,Z) :- req(X), hub(X,Y), flat(X,Z).`)
	rule := prog.Rules[0]
	hub := relation.New(2)
	for i := 0; i < 1000; i++ {
		hub.Add(value.T("h"+itoa(i%4), "y"+itoa(i)), 1)
	}
	flat := fillSeq(2, 2000, 2000)
	dreq := relation.New(1)
	dreq.Add(value.T("h0"), 1)
	srcs := []Source{{Rel: dreq}, {Rel: hub}, {Rel: flat}}
	plan, err := PlanRule(rule, srcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	order := []int{plan.Steps[0].Lit, plan.Steps[1].Lit, plan.Steps[2].Lit}
	if order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("planned order %v, want [0 2 1] (flat before hub): %s", order, plan.Describe(rule))
	}
}

func TestPlanDescribeDeterministic(t *testing.T) {
	prog, _ := parseProgram(t, `out(Y,Z) :- req(X), hub(X,Y), flat(X,Z), Y != Z.`)
	rule := prog.Rules[0]
	hub := fillSeq(2, 300, 3)
	flat := fillSeq(2, 500, 500)
	dreq := relation.New(1)
	dreq.Add(value.T("k1"), 1)
	srcs := []Source{{Rel: dreq}, {Rel: hub}, {Rel: flat}, {}}
	first := ""
	for i := 0; i < 20; i++ {
		plan, err := PlanRule(rule, srcs, 0)
		if err != nil {
			t.Fatal(err)
		}
		d := plan.Describe(rule)
		if i == 0 {
			first = d
			continue
		}
		if d != first {
			t.Fatalf("Describe not deterministic:\n  run 0: %s\n  run %d: %s", first, i, d)
		}
	}
}

func TestPlanReusesExistingSubsetIndex(t *testing.T) {
	// Force an index on column 0 of a 3-ary relation, then plan a join
	// binding columns 0 and 1. The planner must reuse the existing
	// {0}-index rather than demand a fresh {0,1} index.
	r := relation.New(3)
	for i := 0; i < 100; i++ {
		r.Add(value.T("a"+itoa(i%10), "b"+itoa(i%20), "c"+itoa(i)), 1)
	}
	r.Lookup([]int{0}, value.T("a1")) // builds the {0} index
	prog, _ := parseProgram(t, `out(C) :- l(A), m(A,B), big(A,B,C).`)
	rule := prog.Rules[0]
	l := relation.New(1)
	l.Add(value.T("a1"), 1)
	m := relation.New(2)
	m.Add(value.T("a1", "b1"), 1)
	srcs := []Source{{Rel: l}, {Rel: m}, {Rel: r}}
	plan, err := PlanRule(rule, srcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bigStep *PlanStep
	for i := range plan.Steps {
		if plan.Steps[i].Lit == 2 {
			bigStep = &plan.Steps[i]
		}
	}
	if bigStep == nil || bigStep.Kind != AccessIndex {
		t.Fatalf("big not planned as an index access: %s", plan.Describe(rule))
	}
	if len(bigStep.Cols) != 1 || bigStep.Cols[0] != 0 {
		t.Fatalf("planner did not reuse the existing {0} index, probes cols %v", bigStep.Cols)
	}
	// And the reused subset index still yields exact rows.
	out := relation.New(1)
	if err := EvalPlan(rule, srcs, plan, out, nil); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for i := 0; i < 100; i++ {
		if i%10 == 1 && i%20 == 1 {
			want["c"+itoa(i)] = 1
		}
	}
	wantCounts(t, out, want)
}

func TestPlannerCacheHitMissReplan(t *testing.T) {
	prog, _ := parseProgram(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	rule := prog.Rules[0]
	link := fillSeq(2, 16, 16)
	srcs := []Source{{Rel: link}, {Rel: link}}
	p := NewPlanner(nil)
	key := PlanKey{Rule: 0, Kind: PlanEval, Delta: -1}
	if _, err := p.PlanFor(key, rule, srcs); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("cache holds %d plans after first build, want 1", p.Len())
	}
	pl1, err := p.PlanFor(key, rule, srcs)
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := p.PlanFor(key, rule, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if pl1 != pl2 {
		t.Fatal("stable sources must hit the cached plan")
	}

	// Grow one source ~64×: the fingerprint drifts and PlanFor replans.
	grown := fillSeq(2, 1024, 1024)
	pl3, err := p.PlanFor(key, rule, []Source{{Rel: grown}, {Rel: grown}})
	if err != nil {
		t.Fatal(err)
	}
	if pl3 == pl2 {
		t.Fatal("64× growth did not trigger a replan")
	}

	p.Reset()
	if p.Len() != 0 {
		t.Fatalf("Reset left %d plans cached", p.Len())
	}
}

// TestEveryJoinOrderAgrees walks every safe literal order of each rule
// shape — any join next, the filters it makes ready right after it, as
// PlanRule orders them — and requires one multiset from all of them and
// from EvalRule: only cost may depend on the order. Each order numbers
// the slots differently and compiles each literal's columns differently
// (a variable bound by an earlier join is checked, else bound), so this is
// the slot compiler's oracle. Besides four hand-written shapes it runs
// seeded generated rules: variables repeated within a literal, constant
// columns, arithmetic heads, conditions, negation as a filter and as a
// joined Δ(¬Q), and an aggregate literal as a join, over a value domain
// with -0.0, 0.0 and NaN. It must catch, among others, this mutation: a
// repeated variable compiled as a bind instead of a check
// (compilePattern binding c(X,X)'s second column), which joins c(0,1)
// wherever X is still unbound.
func TestEveryJoinOrderAgrees(t *testing.T) {
	link := relation.New(2)
	for i := 0; i < 60; i++ {
		link.Add(value.T("n"+itoa(i%12), "n"+itoa((i*7)%12)), 1)
	}
	hub := relation.New(2)
	for i := 0; i < 200; i++ {
		hub.Add(value.T("n"+itoa(i%3), "y"+itoa(i)), 1)
	}
	req, blocked := relation.New(1), relation.New(2)
	req.Add(value.T("n1"), 1)
	blocked.Add(value.T("n1", "n7"), 1)
	type shape struct {
		rule datalog.Rule
		srcs []Source
	}
	var shapes []shape
	for _, tc := range []struct {
		src  string
		srcs []Source
	}{
		{`hop(X,Y) :- link(X,Z), link(Z,Y).`, []Source{{Rel: link}, {Rel: link}}},
		{`out(Y,Z) :- req(X), hub(X,Y), flat(X,Z).`, []Source{{Rel: req}, {Rel: hub}, {Rel: fillSeq(2, 300, 300)}}},
		{`ok(X,Y) :- !blocked(X,Y), link(X,Y).`, []Source{{Rel: blocked.ToSet()}, {Rel: link}}},
		{`big(X) :- link(X,Y), link(Y,Z), link(Z,X), X != Y.`, []Source{{Rel: link}, {Rel: link}, {Rel: link}, {}}},
	} {
		prog, _ := parseProgram(t, tc.src)
		shapes = append(shapes, shape{prog.Rules[0], tc.srcs})
	}
	rng := rand.New(rand.NewSource(1))
	g := newJoinRuleGen(rng)
	seen := map[string]int{}
	for len(shapes) < 4+300 {
		rule, srcs, kinds := g.rule()
		if datalog.Validate(&datalog.Program{Rules: []datalog.Rule{rule}}) != nil {
			continue
		}
		for _, k := range kinds {
			seen[k]++
		}
		shapes = append(shapes, shape{rule, srcs})
	}
	for _, k := range []string{"repeated", "const", "arith-head", "condition", "neg-filter", "neg-join", "aggregate"} {
		if seen[k] < 20 {
			t.Fatalf("the generator made %d rules with %s, want at least 20", seen[k], k)
		}
	}

	for _, sh := range shapes {
		rule := sh.rule
		want := relation.New(len(rule.Head.Args))
		if err := EvalRule(rule, sh.srcs, -1, want, nil); err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		orders := everyOrder(rule, sh.srcs)
		if len(orders) == 0 {
			t.Fatalf("%s: no safe order", rule)
		}
		for _, plan := range orders {
			out := relation.New(len(rule.Head.Args))
			if err := EvalPlan(rule, sh.srcs, plan, out, nil); err != nil {
				t.Fatalf("%s: %v", rule, err)
			}
			if !relation.Equal(out, want) {
				t.Fatalf("%s: order %s derives %v, EvalRule %v", rule, plan.Describe(rule), out, want)
			}
		}
	}

	// The rederivation leg: each rule's DRed shape — the head prepended as
	// literal 0 over a candidate set — must derive one multiset under every
	// safe order, and one set with each literal pinned as PlanFor pins a
	// PlanRederive key, which takes an unpinned candidate literal as a
	// point filter and stops at a head's first derivation below the step
	// that binds its last variable. A head with arithmetic has no such
	// shape, and a Δ(¬Q) join has counts of either sign, which a
	// rederivation never joins.
	filtered, stopped := 0, 0
	for _, sh := range shapes {
		rule := sh.rule
		if slices.ContainsFunc(rule.Head.Args, func(a datalog.Term) bool { _, ok := a.(datalog.Arith); return ok }) ||
			slices.ContainsFunc(sh.srcs, func(s Source) bool { return s.JoinDelta }) {
			continue
		}
		aux := datalog.Rule{Head: rule.Head, Body: append([]datalog.Literal{{Kind: datalog.LitPositive, Atom: rule.Head}}, rule.Body...)}
		srcs := append([]Source{{Rel: candidates(t, rng, rule, sh.srcs)}}, sh.srcs...)
		want := relation.New(len(rule.Head.Args))
		if err := EvalRule(aux, srcs, -1, want, nil); err != nil {
			t.Fatalf("%s: %v", aux, err)
		}
		plans := everyOrder(aux, srcs)
		for li := range aux.Body {
			if p, err := planRule(aux, srcs, li, true); err == nil {
				plans = append(plans, p)
			}
		}
		for _, plan := range plans {
			out := relation.New(len(rule.Head.Args))
			if err := EvalPlan(aux, srcs, plan, out, nil); err != nil {
				t.Fatalf("%s: %v", aux, err)
			}
			if same := relation.Equal(out, want); !same && (plan.stop < 0 || !relation.Equal(out.ToSet(), want.ToSet())) {
				t.Fatalf("%s: order %s derives %v, EvalRule %v", aux, plan.Describe(aux), out, want)
			}
			if plan.stop >= 0 {
				stopped++
			}
			if slices.ContainsFunc(plan.Steps, func(st PlanStep) bool { return st.Kind == AccessPointFilter }) {
				filtered++
			}
		}
	}
	if filtered < 100 || stopped < 300 {
		t.Fatalf("%d rederivation plans took the candidates as a point filter and %d stop at a head's first derivation, want at least 100 and 300", filtered, stopped)
	}
}

// candidates is a candidate set for rule's rederivation shape: about two
// thirds of the heads rule derives over srcs, and three tuples of the
// value domain it may not derive.
func candidates(t *testing.T, rng *rand.Rand, rule datalog.Rule, srcs []Source) *relation.Relation {
	heads := relation.New(len(rule.Head.Args))
	if err := EvalRule(rule, srcs, -1, heads, nil); err != nil {
		t.Fatalf("%s: %v", rule, err)
	}
	cand := relation.New(len(rule.Head.Args))
	for _, row := range heads.SortedRows() {
		if rng.Intn(3) > 0 {
			cand.Add(row.Tuple, 1)
		}
	}
	for i := 0; i < 3; i++ {
		tu := make(value.Tuple, len(rule.Head.Args))
		for c := range tu {
			tu[c] = joinOrderDomain[rng.Intn(len(joinOrderDomain))]
		}
		cand.Set(tu, 1)
	}
	return cand
}

// The candidate set of a rederivation is a head filter the planner never
// sizes: pinned (the first pass) or not (a round), candidate sets of 1,
// 16 and 4 096 rows get one cached plan and no replan, and a round's plan
// probes the candidates last, as a point filter.
func TestRederivePlanIgnoresCandidateSize(t *testing.T) {
	prog, _ := parseProgram(t, `tc(X,Y) :- tc(X,Y), tc(X,Z), link(Z,Y).`)
	rule := prog.Rules[0]
	link, tc := fillSeq(2, 200, 50), fillSeq(2, 2000, 200)
	d, five := new(relation.Refs), fillSeq(2, 5, 5)
	for p := range five.Len() {
		d.Append(five, p)
	}
	reg := metrics.NewRegistry()
	p := NewPlanner(reg)
	for delta, want := range map[int]string{
		0: "Δ:scan tc(X, Y) -> index tc(X, Z) [cols 0] -> point link(Z, Y)",
		1: "Δ:scan tc(X, Z) -> index link(Z, Y) [cols 0] -> point filter tc(X, Y)",
	} {
		var first *Plan
		for _, n := range []int{1, 16, 4096} {
			srcs := []Source{{Rel: fillSeq(2, n, n)}, {Rel: tc}, {Rel: link}}
			if delta == 1 {
				srcs[1].Rel = d
			}
			plan, err := p.PlanFor(PlanKey{Rule: 0, Kind: PlanRederive, Delta: delta}, rule, srcs)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = plan
			}
			if got := plan.Describe(rule); plan != first || got != want {
				t.Fatalf("Δ at %d, %d candidates: plan %s, want the one plan %s", delta, n, got, want)
			}
		}
	}
	if n := reg.Snapshot().Counter("planner_replans_total"); n != 0 {
		t.Fatalf("%d replans, want 0", n)
	}
}

// joinRuleGen generates rules over three arity-2 relations a, b and c, a
// relation n under negation, and GROUPBY(a(G, V), [G], S = count(V)).
type joinRuleGen struct {
	rng  *rand.Rand
	rels map[string]*relation.Relation // a, b, c, n, and dn: a Δ(¬n) image, counts ±1
}

// joinOrderDomain is the generated values: key identity tells -0.0 from
// 0.0 and NaN matches itself, whichever order probes or scans them.
var joinOrderDomain = []value.Value{value.NewInt(0), value.NewInt(1), value.NewInt(2),
	value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN())}

func newJoinRuleGen(rng *rand.Rand) *joinRuleGen {
	g := &joinRuleGen{rng: rng, rels: map[string]*relation.Relation{}}
	for _, name := range []string{"a", "b", "c", "n", "dn"} {
		r := relation.New(2)
		for i := 0; i < 12; i++ {
			count := int64(1 + rng.Intn(2))
			if name == "dn" {
				count = int64(2*rng.Intn(2) - 1)
			}
			r.Add(value.Tuple{g.val(), g.val()}, count)
		}
		g.rels[name] = r
	}
	return g
}

func (g *joinRuleGen) val() value.Value { return joinOrderDomain[g.rng.Intn(len(joinOrderDomain))] }

// rule returns a generated rule, its sources, and the shapes it holds.
// The body is shuffled, so ties in PlanRule's estimates fall differently.
func (g *joinRuleGen) rule() (datalog.Rule, []Source, []string) {
	rng := g.rng
	vars := []datalog.Var{"X", "Y", "Z", "W"}
	var body []datalog.Literal
	var srcs []Source
	var kinds []string
	var used []datalog.Term // the variables the joins bind
	bind := func(ts ...datalog.Term) {
		for _, t := range ts {
			if v, ok := t.(datalog.Var); ok && !slices.Contains(used, t) {
				used = append(used, v)
			}
		}
	}
	add := func(lit datalog.Literal, src Source, kind string) {
		body, srcs = append(body, lit), append(srcs, src)
		if kind != "" {
			kinds = append(kinds, kind)
		}
	}
	for j := 2 + rng.Intn(2); j > 0; j-- {
		args := make([]datalog.Term, 2)
		for i := range args {
			args[i] = vars[rng.Intn(len(vars))]
			if rng.Intn(6) == 0 {
				args[i] = datalog.Const{Value: g.val()}
				kinds = append(kinds, "const")
			}
		}
		kind := ""
		if rng.Intn(4) == 0 {
			args[1], kind = args[0], "repeated"
		}
		pred := string(rune('a' + rng.Intn(3)))
		add(datalog.Literal{Kind: datalog.LitPositive, Atom: datalog.Atom{Pred: pred, Args: args}}, Source{Rel: g.rels[pred]}, kind)
		bind(args...)
	}
	if rng.Intn(3) == 0 {
		grp := vars[rng.Intn(len(vars))]
		agg := &datalog.Aggregate{Inner: datalog.Atom{Pred: "a", Args: []datalog.Term{grp, datalog.Var("V")}},
			GroupBy: []datalog.Var{grp}, Result: "S", Func: datalog.AggCount, Arg: datalog.Var("V")}
		gt, err := BuildGroupTable(agg, g.rels["a"])
		if err != nil {
			panic(err)
		}
		add(datalog.Literal{Kind: datalog.LitAggregate, Agg: agg}, Source{Rel: gt.Rel()}, "aggregate")
		bind(grp, datalog.Var("S"))
	}
	if len(used) == 0 {
		return g.rule()
	}
	pick := func() datalog.Term { return used[rng.Intn(len(used))] }
	switch rng.Intn(3) {
	case 0:
		add(datalog.Literal{Kind: datalog.LitNegated, Atom: datalog.Atom{Pred: "n", Args: []datalog.Term{pick(), pick()}}},
			Source{Rel: g.rels["n"]}, "neg-filter")
	case 1:
		add(datalog.Literal{Kind: datalog.LitNegated, Atom: datalog.Atom{Pred: "n", Args: []datalog.Term{pick(), pick()}}},
			Source{Rel: g.rels["dn"], JoinDelta: true}, "neg-join")
	}
	if rng.Intn(2) == 0 {
		cond := &datalog.Condition{Op: datalog.CmpOp(rng.Intn(6)), Left: pick(), Right: pick()}
		if rng.Intn(2) == 0 {
			cond.Right = datalog.Const{Value: g.val()}
		}
		add(datalog.Literal{Kind: datalog.LitCondition, Cond: cond}, Source{}, "condition")
	}
	head := datalog.Atom{Pred: "h", Args: []datalog.Term{pick(), pick()}}
	if rng.Intn(3) == 0 {
		head.Args[1] = datalog.Arith{Op: datalog.OpAdd, Left: pick(), Right: datalog.Const{Value: value.NewInt(1)}}
		kinds = append(kinds, "arith-head")
	}
	rng.Shuffle(len(body), func(i, j int) {
		body[i], body[j] = body[j], body[i]
		srcs[i], srcs[j] = srcs[j], srcs[i]
	})
	return datalog.Rule{Head: head, Body: body}, srcs, kinds
}

// everyOrder compiles, with accessPath, every order of rule's joins that
// leaves no filter unbound, each join followed by the filters it readies.
func everyOrder(rule datalog.Rule, srcs []Source) []*Plan {
	isFilter := func(i int) bool {
		l := rule.Body[i]
		return l.Kind == datalog.LitCondition || (l.Kind == datalog.LitNegated && !srcs[i].JoinDelta)
	}
	var joins []int
	for i := range rule.Body {
		if !isFilter(i) {
			joins = append(joins, i)
		}
	}
	compile := func(perm []int) *Plan {
		slots := make(slotOf)
		taken := make([]bool, len(rule.Body))
		p, ok := &Plan{pinned: -1, stop: -1}, true
		take := func(i int) {
			taken[i] = true
			st, err := accessPath(rule, srcs, i, slots, false)
			p.Steps, ok = append(p.Steps, st), ok && err == nil
		}
		flush := func() {
			for i, lit := range rule.Body {
				ready := !taken[i] && isFilter(i)
				for _, v := range lit.UsesVars(nil) {
					_, ok := slots[v]
					ready = ready && ok
				}
				if ready {
					take(i)
				}
			}
		}
		flush()
		for _, j := range perm {
			take(j)
			flush()
		}
		if !ok || len(p.Steps) != len(rule.Body) || p.compileHead(rule, slots) != nil {
			return nil
		}
		return p
	}
	var out []*Plan
	var permute func(k int)
	permute = func(k int) {
		if k == len(joins) {
			if p := compile(joins); p != nil {
				out = append(out, p)
			}
			return
		}
		for i := k; i < len(joins); i++ {
			joins[k], joins[i] = joins[i], joins[k]
			permute(k + 1)
			joins[k], joins[i] = joins[i], joins[k]
		}
	}
	permute(0)
	return out
}

// A rule walk takes its plan's scratch — slots, frames, probe tuples, the
// head buffer — and grounds the head there: it allocates a tuple only for
// a head that neither the output nor a lender holds. A warmed re-walk into
// an output that holds every head, into an emptied one that borrows them
// all, or one whose every derivation the last filter rejects must
// therefore allocate nothing, however many rows it joins, and under -race
// too: the scratch is handed over by an atomic swap, not a sync.Pool,
// which the race detector empties at random.
func TestRuleWalkAllocatesOnlyNewHeadTuples(t *testing.T) {
	prog, _ := parseProgram(t, `hop(X,Y) :- link(X,Z), link(Z,Y), !blocked(X,Y).`)
	rule := prog.Rules[0]
	allocs := func(n int, mode string) float64 {
		link, blocked := relation.New(2), relation.New(2)
		for i := 0; i < n; i++ {
			link.Add(value.T(i, i+1), 1)
			link.Add(value.T(i, i+2), 1)
		}
		blocked.Add(value.T(0, 2), 1)
		srcs := []Source{{Rel: link}, {Rel: link}, {Rel: blocked}}
		plan, err := PlanRule(rule, srcs, -1)
		if err != nil {
			t.Fatal(err)
		}
		out := relation.New(2)
		in := NewInstruments(metrics.NewRegistry())
		eval := func() {
			if err := EvalPlan(rule, srcs, plan, out, in); err != nil {
				t.Fatal(err)
			}
		}
		eval() // builds the index and every head tuple, once
		heads := int64(out.Len())
		if derivations := out.TotalCount(); derivations < int64(n) || in.HeadsBuilt.Value() != heads {
			t.Fatalf("join of %d links: %d derivations of %d heads, %d built", n, derivations, heads, in.HeadsBuilt.Value())
		}
		lender := out.Clone()
		stored := relation.Store(lender)
		switch mode {
		case "lent":
			held := eval
			eval = func() {
				out.Reset() // keeps its cells: the table does not grow again
				out.BorrowFrom(stored, nil)
				held()
			}
		case "blocked":
			blocked.MergeDelta(out)
		}
		eval()
		a := testing.AllocsPerRun(10, eval)
		borrowed := map[string]int64{"lent": 12 * heads}[mode]
		if in.HeadsBuilt.Value() != heads || in.HeadsBorrowed.Value() != borrowed {
			t.Fatalf("%s: 12 re-walks built %d heads and borrowed %d, want 0 and %d",
				mode, in.HeadsBuilt.Value()-heads, in.HeadsBorrowed.Value(), borrowed)
		}
		if mode == "blocked" && !relation.Equal(out, lender) {
			t.Fatal("a walk with every head blocked derived one")
		}
		return a
	}
	for _, mode := range []string{"held", "lent", "blocked"} {
		for _, n := range []int{50, 2000} {
			if a := allocs(n, mode); a != 0 {
				t.Errorf("%s: a warmed re-walk over %d links allocates %v objects, want 0", mode, n, a)
			}
		}
	}
}

// A plan lends its walk scratch to one evaluation at a time: evaluations
// of one plan from several goroutines at once, each probing an overlay
// through its own frame buffers, each derive the whole result.
func TestPlanEvaluatedConcurrently(t *testing.T) {
	prog, _ := parseProgram(t, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	rule := prog.Rules[0]
	link, net := relation.New(2), relation.New(2)
	for i := 0; i < 300; i++ {
		link.Add(value.T(i%40, (i*7)%40), 1)
	}
	for i := 0; i < 20; i++ {
		net.Add(value.T(i, (i*3)%40), 1)
		net.Add(value.T(i, (i*7)%40), -1)
	}
	srcs := []Source{{Rel: link}, {Rel: relation.Overlay(link, net)}}
	plan, err := PlanRule(rule, srcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.New(2)
	if err := EvalPlan(rule, srcs, plan, want, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				out := relation.New(2)
				if err := EvalPlan(rule, srcs, plan, out, nil); err != nil {
					t.Error(err)
					return
				}
				if !relation.Equal(out, want) {
					t.Errorf("a concurrent evaluation derived %v, alone %v", out, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
