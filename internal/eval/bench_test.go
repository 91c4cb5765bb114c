package eval

import (
	"math/rand"
	"testing"

	"ivm/internal/relation"
	"ivm/internal/value"
	"ivm/internal/workload"
)

func benchGraph(n, m int) *relation.Relation {
	return workload.RandomGraph(rand.New(rand.NewSource(1)), n, m)
}

func BenchmarkEvalRuleJoin(b *testing.B) {
	b.ReportAllocs()
	prog, st := parseProgram(b, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	_ = st
	link := benchGraph(200, 1200)
	srcs := []Source{{Rel: link}, {Rel: link}}
	// Warm the index.
	out := relation.New(2)
	if err := EvalRule(prog.Rules[0], srcs, -1, out, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := relation.New(2)
		if err := EvalRule(prog.Rules[0], srcs, -1, out, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalRuleDeltaJoin(b *testing.B) {
	b.ReportAllocs()
	prog, _ := parseProgram(b, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	link := benchGraph(200, 1200)
	delta := relation.New(2)
	link.Each(func(r relation.Row) {
		if delta.Len() < 4 {
			delta.Add(r.Tuple, -1)
		}
	})
	srcs := []Source{{Rel: delta}, {Rel: link}}
	out := relation.New(2)
	if err := EvalRule(prog.Rules[0], srcs, 0, out, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := relation.New(2)
		if err := EvalRule(prog.Rules[0], srcs, 0, out, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupTableBuild(b *testing.B) {
	b.ReportAllocs()
	prog, _ := parseProgram(b, `m(S,M) :- groupby(u(S,C), [S], M = min(C)).`)
	g := prog.Rules[0].Body[0].Agg
	u := relation.New(2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		u.Add(value.T(int64(rng.Intn(200)), int64(rng.Intn(1000))), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildGroupTable(g, u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupTableDelta(b *testing.B) {
	b.ReportAllocs()
	prog, _ := parseProgram(b, `m(S,M) :- groupby(u(S,C), [S], M = sum(C)).`)
	g := prog.Rules[0].Body[0].Agg
	u := relation.New(2)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		u.Add(value.T(int64(rng.Intn(200)), int64(1+rng.Intn(1000))), 1)
	}
	gt, err := BuildGroupTable(g, u)
	if err != nil {
		b.Fatal(err)
	}
	ins := relation.New(2)
	ins.Add(value.T(int64(7), int64(5)), 1)
	del := ins.Negate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ins
		if i%2 == 1 {
			d = del
		}
		dt, err := gt.ApplyDelta(d, nil)
		if err != nil {
			b.Fatal(err)
		}
		gt.Commit(dt)
	}
}
