package ivm_test

// Benchmarks of the public API's planner and replication paths. The
// paper's experiments E1–E10 and E12 are benchmarks of their own in
// internal/experiments; E11 is the TestProperty* seed selections of the
// oracle in oracle_test.go.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ivm"
	"ivm/internal/core/dred"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/storage"
	"ivm/internal/value"
)

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
	hot, wide := skewedJoin(skewHotKeys, skewFanout, skewWideRows, skewOverlap)
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
	key := skewedReqKey(skewHotKeys, skewOverlap+(i/2)%(skewHotKeys-skewOverlap)).String()
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
	g := &slidingLinks{rng: rand.New(rand.NewSource(1)), has: make(map[string]bool)}
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
	prog, err := parser.ParseRules(hopDegProgram)
	if err != nil {
		b.Fatal(err)
	}
	db := eval.NewDB()
	db.Put("link", link)
	e, err := dred.NewWithConfig(prog, db, dred.Config{Algorithm: dred.Counting, Semantics: eval.Set})
	if err != nil {
		b.Fatal(err)
	}
	d := relation.New(2)
	for _, t := range gen.live[:8] {
		d.Add(t, -1)
	}
	if _, err := e.Apply(map[string]*relation.Relation{"link": d}); err != nil {
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

// skewedJoin builds the adversarial cardinality shape for the join
// planner benchmark, for the program
//
//	out(Y,Z) :- req(X), hot(X,Y), wide(X,Z).
//
// hot is small but fans out hugely: hotKeys distinct X values with
// fanout Y rows each. wide is large but selective: wideRows rows whose X
// values are unique, with only the first overlap rows reusing hot's
// keys. A syntactic order (smaller relation first on a bound-count tie)
// joins hot before wide and enumerates fanout rows per Δreq key; a
// cardinality-aware order probes wide first and exits after ≤ overlap
// matches.
func skewedJoin(hotKeys, fanout, wideRows, overlap int) (hot, wide *relation.Relation) {
	hot = relation.New(2)
	for k := 0; k < hotKeys; k++ {
		for f := 0; f < fanout; f++ {
			hot.Add(value.Tuple{hotKey(k), value.NewString(fmt.Sprintf("y%d_%d", k, f))}, 1)
		}
	}
	wide = relation.New(2)
	for i := 0; i < wideRows; i++ {
		x := value.NewString(fmt.Sprintf("w%d", i))
		if i < overlap {
			x = hotKey(i % hotKeys)
		}
		wide.Add(value.Tuple{x, value.NewString(fmt.Sprintf("z%d", i))}, 1)
	}
	return hot, wide
}

func hotKey(k int) value.Value { return value.NewString(fmt.Sprintf("h%d", k)) }

// skewedReqKey returns the i-th Δreq key for skewedJoin data: a hot key,
// so every delta drives the full hot fan-out under a syntactic order.
func skewedReqKey(hotKeys, i int) value.Value { return hotKey(i % hotKeys) }
