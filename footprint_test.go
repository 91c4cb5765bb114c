package ivm_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ivm"
	"ivm/internal/relation"
	"ivm/internal/value"
	"ivm/internal/workload"
)

// TestStoredRowsHeldOnce runs the layered benchmark's hop_batch_mem shape
// — three strata of counting over 4 000 random links, batches that delete
// 16 links and insert 16 — through Views.Apply, and reads how many row
// cells the engine's stored relations and the published version hold
// between them. A stored relation is kept once, its base shared with the
// version, so that is at most twice the rows stored; an engine that kept
// its own table beside the version's base held about 3.1 times as many.
func TestStoredRowsHeldOnce(t *testing.T) {
	const nodes, edges, half, batches = 2000, 4000, 16, 200
	rng := rand.New(rand.NewSource(1))
	db := ivm.NewDatabase()
	var live []value.Tuple
	has := make(map[string]bool)
	workload.RandomGraph(rng, nodes, edges).Each(func(row relation.Row) {
		db.InsertTuple("link", row.Tuple, 1)
		live, has[row.Key()] = append(live, row.Tuple), true
	})
	v, err := db.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).\n" +
		"tri_hop(X,Y) :- hop(X,Z), link(Z,Y).\n" +
		"deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).\n")
	if err != nil {
		t.Fatal(err)
	}
	node := func() value.Value { return value.NewString(fmt.Sprintf("n%d", rng.Intn(nodes))) }
	for b := 0; b < batches; b++ {
		u, gone := ivm.NewUpdate(), make(map[string]bool)
		for i := 0; i < half; i++ {
			j := rng.Intn(len(live))
			u.InsertTuple("link", live[j], -1)
			delete(has, live[j].Key())
			gone[live[j].Key()] = true
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < half; {
			tu := value.Tuple{node(), node()}
			if tu[0] == tu[1] || has[tu.Key()] || gone[tu.Key()] {
				continue
			}
			u.InsertTuple("link", tu, 1)
			live, has[tu.Key()] = append(live, tu), true
			i++
		}
		if _, err := v.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	cells, rows := ivm.HeldCells(v)
	t.Logf("%d rows stored, %d cells held (%.2f per row)", rows, cells, float64(cells)/float64(rows))
	if cells > 2*rows {
		t.Fatalf("the engine and the published version hold %d cells for %d stored rows (%.2f per row), want at most 2", cells, rows, float64(cells)/float64(rows))
	}
}

// Once the engine has rebased a relation and no snapshot pins the old
// version, the old base is garbage: nothing the engine keeps between
// applies — its stored relations, the lenders its outputs borrow from,
// the planner's cached plans and sources, the group tables — refers to it.
func TestOldBaseIsCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := ivm.NewDatabase()
	var live []value.Tuple
	has := make(map[string]bool)
	workload.RandomGraph(rng, 100, 150).Each(func(row relation.Row) {
		db.InsertTuple("link", row.Tuple, 1)
		live, has[row.Key()] = append(live, row.Tuple), true
	})
	v, err := db.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).\n" +
		"deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).\n" +
		"reach(Y) :- hop(n0,Y).\nreach(Y) :- reach(X), link(X,Y), !hop(Y,X).\n")
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(ivm.VersionFlat(v, "hop"), func(*relation.Relation) { close(collected) })
	for rebases := 0; rebases < 2; {
		u := ivm.NewUpdate()
		for i := 0; i < 8; i++ { // the oldest link goes, a new one comes
			old := live[0]
			u.InsertTuple("link", old, -1)
			delete(has, old.Key())
			tu := old
			for has[tu.Key()] || tu.Key() == old.Key() {
				tu = value.Tuple{value.NewString(fmt.Sprintf("n%d", rng.Intn(100))), value.NewString(fmt.Sprintf("n%d", rng.Intn(100)))}
			}
			u.InsertTuple("link", tu, 1)
			live, has[tu.Key()] = append(live[1:], tu), true
		}
		if _, err := v.Apply(u); err != nil {
			t.Fatal(err)
		}
		if ivm.VersionDepth(v, "hop") == 0 {
			rebases++
		}
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(v)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the first base of hop is still reachable two rebases later")
}

// TestApplyWorkIsFlatInDatabaseSize is Theorem 4.1's cost law over the
// public API: an apply's work is a function of its Δ, not of |DB|. Each
// rung of a ladder holds n nodes and 4n random links under hop, a groupby
// count over it and a groupby min of all of hop, one group of about 16n
// rows, and takes 4 000 single-link applies, each inserting a new link or
// deleting a stored one. The test reads counts only. Join probes, Δ rows and objects per apply must not
// grow with n, and the version rows publication copies per row it links
// must stay within copiedPerLogDB·log₂|DB| (|DB| the links).
func TestApplyWorkIsFlatInDatabaseSize(t *testing.T) {
	// Measured 0.335 at the smallest rung (copied ÷ linked 4.0, 4.3 and 5.0
	// up the ladder), + 10 %. A compaction that re-copied every pending
	// row read 10.4, 31.5 and 37.9.
	const copiedPerLogDB = 0.37
	const applies = 4000
	var first [3]float64 // probes, Δ rows and objects per apply at the first rung
	for _, n := range []int{1000, 4000, 16000} {
		rng := rand.New(rand.NewSource(1))
		db := ivm.NewDatabase()
		var live []value.Tuple
		has := make(map[string]bool)
		workload.RandomGraph(rng, n, 4*n).Each(func(row relation.Row) {
			db.InsertTuple("link", row.Tuple, 1)
			live, has[row.Key()] = append(live, row.Tuple), true
		})
		v, err := db.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).\n" +
			"deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).\n" +
			"lo(M) :- groupby(hop(X,Y), [], M = min(Y)).\n")
		if err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0, objects0 := v.Metrics(), ms.Mallocs
		linked0, copied0 := relation.VersionRows()
		delta := 0
		for i := 0; i < applies; i++ {
			u := ivm.NewUpdate()
			if i%2 == 0 {
				tu := live[0]
				for has[tu.Key()] {
					tu = value.Tuple{value.NewString(fmt.Sprintf("n%d", rng.Intn(n))), value.NewString(fmt.Sprintf("n%d", rng.Intn(n)))}
				}
				u.InsertTuple("link", tu, 1)
				live, has[tu.Key()] = append(live, tu), true
			} else {
				j := rng.Intn(len(live))
				u.InsertTuple("link", live[j], -1)
				delete(has, live[j].Key())
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if _, err := v.Apply(u); err != nil {
				t.Fatal(err)
			}
			delta += v.Trace().Stats.DeltaTuples
		}
		runtime.ReadMemStats(&ms)
		linked, copied := relation.VersionRows()
		got := [3]float64{
			float64(v.Metrics().Counter("eval_join_probes_total")-m0.Counter("eval_join_probes_total")) / applies,
			float64(delta) / applies,
			float64(ms.Mallocs-objects0) / applies,
		}
		ratio, bound := float64(copied-copied0)/float64(linked-linked0), copiedPerLogDB*math.Log2(float64(4*n))
		t.Logf("n = %d: %.2f probes, %.2f Δ rows, %.1f objects per apply; %.2f version rows copied per row linked (bound %.2f)", n, got[0], got[1], got[2], ratio, bound)
		if ratio > bound {
			t.Errorf("n = %d: publication copied %.2f version rows per row it linked, more than %.2f·log₂|DB| = %.2f: does compaction re-copy every pending row?", n, ratio, copiedPerLogDB, bound)
		}
		if n == 1000 {
			first = got
			continue
		}
		for i, what := range []string{"join probes", "Δ rows", "objects"} {
			if got[i] > 1.1*first[i] {
				t.Errorf("n = %d: %.2f %s per apply, %.2f at n = 1000: the work grew with |DB|", n, got[i], what, first[i])
			}
		}
	}
}

// TestMinGroupWorkIsFlatInItsSize holds a MIN group's upkeep to its Δ
// where values come and go in the middle of its order: a MIN over
// increasing values, such as the earliest timestamp per key, whose new
// rows are never the extremum. One group of r holds the k values
// 0..k-1, and each apply inserts the next value above them all and
// deletes the one before it, so the group keeps k values and its minimum
// 0. From k = 8 to k = 32768, the time per apply (the best of five runs)
// must grow by at most timeRatio, and the bytes and objects per apply by
// at most 1.25×: measured 1.1–1.2× in time and 1.0× in bytes and objects.
// A group that kept its values in a sorted slice moved about k of them
// for each such value and took 65–86× the time at k = 32768.
func TestMinGroupWorkIsFlatInItsSize(t *testing.T) {
	const applies, trials, timeRatio = 400, 5, 2.0
	type rung struct {
		k                  int
		v                  *ivm.Views
		ns, bytes, objects float64
	}
	rungs := []*rung{{k: 8}, {k: 32768}}
	for _, r := range rungs {
		db := ivm.NewDatabase()
		for y := range r.k {
			db.InsertTuple("r", ivm.T("g", y), 1)
		}
		var err error
		if r.v, err = db.Materialize("lo(X,M) :- groupby(r(X,Y), [X], M = min(Y)).\n"); err != nil {
			t.Fatal(err)
		}
		r.ns = math.Inf(1)
	}
	// The rungs take turns, so that a stretch of a busy machine slows
	// both; each keeps its best time.
	var ms runtime.MemStats
	for trial := range trials {
		for _, r := range rungs {
			runtime.ReadMemStats(&ms)
			bytes0, objects0, start := ms.TotalAlloc, ms.Mallocs, time.Now()
			for i := range applies {
				y := r.k + trial*applies + i
				u := ivm.NewUpdate()
				u.InsertTuple("r", ivm.T("g", y), 1)
				u.InsertTuple("r", ivm.T("g", y-1), -1)
				if _, err := r.v.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			r.ns = min(r.ns, float64(time.Since(start).Nanoseconds())/applies)
			runtime.ReadMemStats(&ms)
			r.bytes, r.objects = float64(ms.TotalAlloc-bytes0)/applies, float64(ms.Mallocs-objects0)/applies
		}
	}
	for _, r := range rungs {
		if got, want := r.v.Rows("lo"), []ivm.Row{{Tuple: ivm.T("g", 0), Count: 1}}; !sameRows(want, got, true) {
			t.Fatalf("k = %d: lo is %v, want %v", r.k, got, want)
		}
	}
	small, large := rungs[0], rungs[1]
	t.Logf("k = 8: %.1f µs, %.0f B, %.1f objects per apply; k = 32768: %.1f µs, %.0f B, %.1f objects",
		small.ns/1e3, small.bytes, small.objects, large.ns/1e3, large.bytes, large.objects)
	if large.ns > timeRatio*small.ns {
		t.Errorf("k = 32768: %.1f µs per apply, %.1f at k = 8: the upkeep of a value in the middle of the order grew with the group", large.ns/1e3, small.ns/1e3)
	}
	if large.bytes > 1.25*small.bytes || large.objects > 1.25*small.objects {
		t.Errorf("k = 32768: %.0f B and %.1f objects per apply, %.0f B and %.1f at k = 8: the upkeep grew with the group", large.bytes, large.objects, small.bytes, small.objects)
	}
}

// TestMinRescansGrowWithTheGroups holds MIN to the law above where a
// group loses its minimum on every other apply. Each rung is a hub of
// width k: k sources link to it and it links to k targets 0..k-1, so hop
// holds k groups of k rows, and every apply deletes or puts back the one
// link to target 0, every group's minimum. An apply's base Δ is one row,
// and its Δ rows grow with k (each of the k groups changes), but the work
// per Δ row must not: the min stream builds no more relation indexes than
// the same stream under count (a group that loses its minimum moves to the
// next value held in its state, without reading hop), and at k = 128 it
// allocates no more bytes and objects per Δ row than 1.25× those at k = 8
// (an undo that copied a group's values on every touch would grow with
// k). The views hold each group's values once: at k = 128, the min views
// hold at most heldPerRow bytes more per hop row than the count views,
// after Materialize and after the stream (an undo that kept a spare copy
// of each group reads 91 B more after it). lo equals a Recompute after
// every apply.
func TestMinRescansGrowWithTheGroups(t *testing.T) {
	const applies = 40
	// An entry of a group's values is a value.Value (32 B) and its count:
	// 40 B, and its slice rounds up. Measured 48 B after Materialize and
	// 49 B after the stream.
	const heldPerRow = 64
	type stream struct {
		indexes                         int64
		bytes, objects, delta           float64
		heldAfterBuild, heldAfterStream float64
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run := func(k int, fn string) stream {
		db := ivm.NewDatabase()
		for i := range k {
			db.InsertTuple("link", ivm.T(fmt.Sprintf("s%d", i), "hub"), 1)
			db.InsertTuple("link", ivm.T("hub", i), 1)
		}
		program := "hop(X,Y) :- link(X,Z), link(Z,Y).\n" +
			"lo(X,M) :- groupby(hop(X,Y), [X], M = " + fn + "(Y)).\n"
		oracle, err := db.Materialize(program, ivm.WithStrategy(ivm.Recompute))
		if err != nil {
			t.Fatal(err)
		}
		var s stream
		h0 := heap()
		v, err := db.Materialize(program)
		if err != nil {
			t.Fatal(err)
		}
		s.heldAfterBuild = float64(heap()-h0) / float64(k*k)
		var ms runtime.MemStats
		for i := range applies {
			u := ivm.NewUpdate()
			u.InsertTuple("link", ivm.T("hub", 0), int64(2*(i%2)-1))
			runtime.ReadMemStats(&ms)
			bytes0, objects0, indexes0 := ms.TotalAlloc, ms.Mallocs, relation.IndexesBuilt()
			if _, err := v.Apply(u); err != nil {
				t.Fatal(err)
			}
			s.indexes += relation.IndexesBuilt() - indexes0
			runtime.ReadMemStats(&ms)
			s.bytes += float64(ms.TotalAlloc - bytes0)
			s.objects += float64(ms.Mallocs - objects0)
			s.delta += float64(v.Trace().Stats.DeltaTuples)
			if _, err := oracle.Apply(u); err != nil {
				t.Fatal(err)
			}
			if got, want := v.Rows("lo"), oracle.Rows("lo"); fn == "min" && !sameRows(want, got, true) {
				t.Fatalf("k = %d, apply %d: lo is\n%v\nRecompute holds\n%v", k, i, got, want)
			}
		}
		s.heldAfterStream = float64(heap()-h0) / float64(k*k)
		runtime.KeepAlive(v)
		runtime.KeepAlive(oracle)
		s.bytes, s.objects = s.bytes/s.delta, s.objects/s.delta
		return s
	}
	var first stream
	for _, k := range []int{8, 32, 128} {
		lo, count := run(k, "min"), run(k, "count")
		t.Logf("k = %d: min builds %d indexes (count %d); %.0f B and %.2f objects per Δ row; holds %.0f B per hop row after Materialize, %.0f after the stream (count %.0f, %.0f)",
			k, lo.indexes, count.indexes, lo.bytes, lo.objects, lo.heldAfterBuild, lo.heldAfterStream, count.heldAfterBuild, count.heldAfterStream)
		if lo.indexes > count.indexes {
			t.Errorf("k = %d: the min stream built %d relation indexes, the count stream %d: does a group read hop when it loses its minimum?", k, lo.indexes, count.indexes)
		}
		if k == 8 {
			first = lo
			continue
		}
		if k == 128 {
			if lo.bytes > 1.25*first.bytes || lo.objects > 1.25*first.objects {
				t.Errorf("k = 128: %.0f B and %.2f objects per Δ row, %.0f B and %.2f at k = 8: the work per Δ row grew with the groups", lo.bytes, lo.objects, first.bytes, first.objects)
			}
			for _, held := range [][2]float64{{lo.heldAfterBuild, count.heldAfterBuild}, {lo.heldAfterStream, count.heldAfterStream}} {
				if held[0]-held[1] > heldPerRow {
					t.Errorf("k = 128: the min views hold %.0f B per hop row, the count views %.0f: more than %d B a row for a group's values", held[0], held[1], heldPerRow)
				}
			}
		}
	}
}

// TestFollowerFoldByteCeiling folds replica_follow's stream in small
// (slidingLinks: 8 links out and 8 in per apply, under hop, tri_hop and a
// groupby count) on a follower under set semantics, and pins the bytes a
// fold allocates. A set view's change set is the record's Δ itself where
// each row flips by its own count, else one Pick of it made to size.
func TestFollowerFoldByteCeiling(t *testing.T) {
	const warm, folds = 32, 64
	// ~10 % above the bytes a fold allocates (measured 55 492; 64 121 when
	// a table entry was 40 bytes, its cell holding a pointer to the key
	// behind the row's values; 94 598 when each change set grew row by row
	// from an empty table).
	const ceiling = 61000
	// ~10 % above the objects a fold allocates (measured 237; 407 when a
	// new row's tuple and key were two allocations).
	const objectCeiling = 260
	gen := newSlidingLinks()
	db := ivm.NewDatabase()
	for _, tu := range gen.live {
		db.InsertTuple("link", tu, 1)
	}
	primary, err := db.Materialize(hopDegProgram)
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
	recs := make([]ivm.CommitRecord, warm+folds)
	for i := range recs {
		cs, err := primary.Apply(gen.next())
		if err != nil {
			t.Fatal(err)
		}
		ev, _ := h.At(cs.Version())
		recs[i] = ev.CommitRecord
	}
	var ms runtime.MemStats
	var before, objects0 uint64
	for i, rec := range recs {
		if i == warm {
			runtime.ReadMemStats(&ms)
			before, objects0 = ms.TotalAlloc, ms.Mallocs
		}
		if _, err := follower.ApplyCommitRecord(rec, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	bytes, objects := (ms.TotalAlloc-before)/folds, (ms.Mallocs-objects0)/folds
	t.Logf("a fold allocates %d bytes (ceiling %d) in %d objects (ceiling %d)", bytes, ceiling, objects, objectCeiling)
	if bytes > ceiling {
		t.Fatalf("a fold allocates %d bytes, ceiling %d: is a set view's change set still the record's Δ, or one Pick of it made to size?", bytes, ceiling)
	}
	if objects > objectCeiling {
		t.Fatalf("a fold allocates %d objects, ceiling %d: is a new row still one allocation, its tuple and key in one block (relation.RowFromKey)?", objects, objectCeiling)
	}
}
