package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"ivm/internal/value"
)

// These tests hold the "key a tuple once" contract of the package: a
// probe allocates nothing, a row that carries its key is never encoded
// again, and the keyed paths leave exactly the state the encoding paths
// leave.

func noAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s: %v allocs per run, want 0", what, n)
	}
}

func TestProbesDoNotAllocate(t *testing.T) {
	r := buildRelation(2000)
	hit, miss := value.T("s5", "d105"), value.T("s5", "nope")
	key, noKey := value.T("s7"), value.T("s-none")
	cols := []int{0}
	// Build three indexes and let every count change below maintain them.
	r.Lookup(cols, key)
	r.Lookup([]int{1}, value.T("d105"))
	r.Lookup([]int{0, 1}, hit)
	set := SetImage(r)

	noAllocs(t, "Count hit", func() { _ = r.Count(hit) })
	noAllocs(t, "Count miss", func() { _ = r.Count(miss) })
	noAllocs(t, "Has hit", func() { _ = r.Has(hit) })
	noAllocs(t, "Has miss", func() { _ = r.Has(miss) })
	noAllocs(t, "Lookup hit on a built index", func() { _ = r.Lookup(cols, key) })
	noAllocs(t, "Lookup miss on a built index", func() { _ = r.Lookup(cols, noKey) })
	noAllocs(t, "Lookup hit on a two-column index", func() { _ = r.Lookup([]int{0, 1}, hit) })
	noAllocs(t, "Add of an existing tuple", func() { r.Add(hit, 1) })
	// The stored cell carries its key: neither the re-store of a bumped
	// count nor the delete of a cancelled one builds a string, and Each
	// rebuilds its rows on the stack.
	keyedHit, n := keyed(hit, 1), 0
	noAllocs(t, "AddRow of an existing tuple", func() { r.AddRow(keyedHit) })
	noAllocs(t, "AddRow that cancels a tuple, and its re-insert by key", func() {
		r.AddRow(keyedHit.WithCount(-r.Count(hit)))
		r.AddRow(keyedHit)
	})
	noAllocs(t, "Delete hit, and its re-insert by key", func() { r.Delete(hit); r.AddRow(keyedHit) })
	noAllocs(t, "Each", func() { r.Each(func(row Row) { n += len(row.Tuple) }) })
	noAllocs(t, "Set of an existing tuple", func() { r.Set(hit, 3); r.Set(hit, 4) })
	noAllocs(t, "Delete miss", func() { r.Delete(miss) })
	noAllocs(t, "set-image Lookup of a set", func() { _ = LookupInto(set, cols, noKey, new([]Row)); _ = set.Count(hit) })
}

// An index build makes a fixed number of objects — the index, its columns,
// its key table, the one array its runs are carved from and here the idx
// slice, plus the probe's tuple — however many keys it finds: a map of
// buckets made three per key. Once built, a count
// change of a stored tuple rewrites its row in the run in place.
func TestIndexBuildAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the pooled scratch
	build := func(keys int) (*Relation, float64) {
		r := New(2)
		for i := 0; i < 2000; i++ {
			r.Add(value.T(i%keys, i), 1)
		}
		return r, testing.AllocsPerRun(20, func() {
			r.idx = nil
			if len(r.Lookup([]int{0}, value.T(7))) != 2000/keys {
				t.Fatal("the built index lost rows")
			}
		})
	}
	_, few := build(20)
	r, many := build(2000)
	t.Logf("an index build over 2 000 rows allocates %v objects with 20 keys, %v with 2 000", few, many)
	stored := value.T(7, 7)
	noAllocs(t, "a count change of a stored tuple in an indexed relation", func() { r.Add(stored, 1); r.Add(stored, -1) })
	if raceEnabled {
		t.Skipf("allocation counts of pooled scratch do not hold under -race (saw %v and %v)", few, many)
	}
	if few != many || many > 8 {
		t.Fatalf("an index build over 2 000 rows allocates %v objects with 20 keys, %v with 2 000", few, many)
	}
}

func TestLongKeysSpillTheScratchCorrectly(t *testing.T) {
	long := strings.Repeat("x", 3*value.KeyScratch)
	r := New(2)
	r.Add(value.T(long, 1), 2)
	r.Add(value.T(long+"y", 1), 1)
	if r.Count(value.T(long, 1)) != 2 || r.Count(value.T(long+"y", 1)) != 1 || r.Has(value.T(long+"z", 1)) {
		t.Fatal("probe of a key longer than the scratch buffer went wrong")
	}
	if got := r.Lookup([]int{0}, value.T(long)); len(got) != 1 || got[0].Count != 2 {
		t.Fatalf("Lookup on a long key = %v", got)
	}
	r.Delete(value.T(long, 1))
	if r.Len() != 1 || len(r.Lookup([]int{0}, value.T(long))) != 0 {
		t.Fatal("Delete of a long key left the row or its index entry behind")
	}
}

func TestKeyedMergesAllocateNoKeyStrings(t *testing.T) {
	const n = 1024
	delta := New(2)
	for i := 0; i < n; i++ {
		delta.Add(value.T(fmt.Sprintf("k%d", i), i), 1)
	}
	// Every row already present: nothing to allocate at all.
	full := delta.Clone()
	noAllocs(t, "MergeDelta onto present rows", func() { full.MergeDelta(delta) })

	// Into an empty relation a key string per row would be n allocations;
	// what remains is the relation itself and the growth of its map.
	if got := testing.AllocsPerRun(20, func() { New(2).MergeDelta(delta) }); got > n/8 {
		t.Errorf("MergeDelta of %d keyed rows into an empty relation: %v allocs, want map growth only", n, got)
	}
	if got := testing.AllocsPerRun(20, func() { Materialize(delta) }); got > n/8 {
		t.Errorf("Materialize of %d keyed rows: %v allocs, want map growth only", n, got)
	}
	over := Overlay(SetImage(full), delta.Negate())
	if got := testing.AllocsPerRun(20, func() { Materialize(over) }); got > n/8 {
		t.Errorf("Materialize of an overlay of %d keyed rows: %v allocs, want map growth only", n, got)
	}
}

// Lookup used to keep the caller's cols slice inside the index it built;
// a caller that reuses the slice then silently re-pointed the index at
// other columns.
func TestLookupDoesNotRetainCols(t *testing.T) {
	r := New(2)
	r.Add(value.T("a", "b"), 1)
	cols := []int{0}
	if len(r.Lookup(cols, value.T("a"))) != 1 {
		t.Fatal("first lookup")
	}
	cols[0] = 1 // the caller's buffer moves on
	r.Add(value.T("a", "c"), 1)
	r.Add(value.T("x", "a"), 1)
	got := r.Lookup([]int{0}, value.T("a"))
	if len(got) != 2 || !got[0].Tuple.Equal(value.T("a", "b")) || !got[1].Tuple.Equal(value.T("a", "c")) {
		t.Fatalf("index on column 0 after the caller reused its slice: %v, want (a,b) and (a,c)", got)
	}
	if got := r.Lookup([]int{1}, value.T("a")); len(got) != 1 || !got[0].Tuple.Equal(value.T("x", "a")) {
		t.Fatalf("index on column 1: %v, want (x,a)", got)
	}
	if p := r.PreferredIndex([]int{0}); len(p) != 1 || p[0] != 0 {
		t.Fatalf("PreferredIndex reports cols %v for the index on column 0", p)
	}
}

// keyed returns t as a row that carries its key, the way rows come out
// of a relation.
func keyed(t value.Tuple, count int64) Row {
	h := New(len(t))
	h.Add(t, 1)
	return h.Rows()[0].WithCount(count)
}

// indexImage renders every index of r as columns → run key → sorted rows,
// and checks the key table's count of occupied slots on the way.
func indexImage(r *Relation) map[string]map[string][]string {
	out := make(map[string]map[string][]string)
	for _, ix := range r.idx {
		m := make(map[string][]string)
		n := 0
		for _, s := range ix.slots {
			if len(s.run) == 0 {
				continue
			}
			n++
			k := r.At(int(s.run[0])).Tuple.Project(ix.cols).Key()
			if m[k] != nil {
				m[k] = append(m[k], "TWO RUNS")
			}
			for _, p := range s.run {
				row := r.At(int(p))
				if row.Tuple.Project(ix.cols).Key() != k {
					m[k] = append(m[k], "WRONG RUN "+row.key)
				}
				if row.key != row.Tuple.Key() {
					m[k] = append(m[k], "BAD KEY "+row.key)
				}
				m[k] = append(m[k], fmt.Sprintf("%s×%d", row.key, row.Count))
			}
			sort.Strings(m[k])
		}
		if n != ix.n {
			m["#"] = []string{fmt.Sprintf("%d runs, n = %d", n, ix.n)}
		}
		out[fmt.Sprint(ix.cols)] = m
	}
	return out
}

func TestKeyedAddMatchesAddProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	for trial := 0; trial < 60; trial++ {
		a, b := New(2), New(2)
		for _, r := range []*Relation{a, b} {
			// Build the lazy structures first so every op maintains them.
			r.Lookup([]int{0}, value.T(0))
			r.Lookup([]int{1}, value.T(0))
			r.Lookup([]int{0, 1}, value.T(0, 0))
			r.DistinctEst(0)
		}
		for op := 0; op < 200; op++ {
			tu := value.T(rng.Intn(6)-2, fmt.Sprintf("v%d", rng.Intn(5)))
			switch c := int64(rng.Intn(7) - 3); rng.Intn(10) {
			case 0:
				a.Delete(tu)
				b.Delete(tu)
			case 1:
				a.Set(tu, c)
				b.Set(tu, c)
			default:
				a.Add(tu, c)
				b.AddRow(keyed(tu, c))
			}
		}
		if !Equal(a, b) {
			t.Fatalf("trial %d: Add and AddRow diverged:\n  %v\n  %v", trial, a, b)
		}
		b.Each(func(row Row) {
			if row.key != row.Tuple.Key() {
				t.Fatalf("trial %d: stored row %v carries key %q", trial, row.Tuple, row.key)
			}
		})
		if ia, ib := fmt.Sprint(indexImage(a)), fmt.Sprint(indexImage(b)); ia != ib {
			t.Fatalf("trial %d: index runs differ:\n  %s\n  %s", trial, ia, ib)
		}
		for col := range a.stats.cols {
			if a.stats.cols[col] != b.stats.cols[col] {
				t.Fatalf("trial %d: distinct sketch of column %d differs", trial, col)
			}
		}
		// The indexes still answer like a scan.
		for k := -2; k < 4; k++ {
			var want int64
			a.Each(func(row Row) {
				if row.Tuple[0] == value.NewInt(int64(k)) {
					want += row.Count
				}
			})
			var got int64
			for _, row := range b.Lookup([]int{0}, value.T(k)) {
				got += row.Count
			}
			if got != want {
				t.Fatalf("trial %d: Lookup(col0=%d) sums to %d, scan to %d", trial, k, got, want)
			}
		}
	}
}

func randomDelta(rng *rand.Rand, keys, rows int) *Relation {
	d := New(2)
	for i := 0; i < rows; i++ {
		d.Add(value.T(rng.Intn(keys), fmt.Sprintf("p%d", rng.Intn(3))), int64(rng.Intn(5)-2))
	}
	return d
}

// lookupAgrees checks rd.Lookup(cols, ·) against a scan of want, for the
// projections of a few tuples of the key space: the same rows with the
// same counts, none twice, none with count zero.
func lookupAgrees(t *testing.T, rng *rand.Rand, keys int, rd Reader, want *Relation, cols []int, where string) {
	t.Helper()
	for probe := 0; probe < 3; probe++ {
		tup := value.T(rng.Intn(keys), fmt.Sprintf("p%d", rng.Intn(3)))
		kv := make(value.Tuple, len(cols))
		for i, c := range cols {
			kv[i] = tup[c]
		}
		got := map[string]int64{}
		for _, row := range LookupInto(rd, cols, kv, new([]Row)) {
			if _, dup := got[row.Key()]; dup || row.Count == 0 {
				t.Fatalf("%s: Lookup(%v, %v) returned %v twice or with count zero", where, cols, kv, row.Tuple)
			}
			got[row.Key()] = row.Count
		}
		n := 0
		want.Each(func(row Row) {
			for i, c := range cols {
				if row.Tuple[c] != kv[i] {
					return
				}
			}
			n++
			if got[row.Key()] != row.Count {
				t.Fatalf("%s: Lookup(%v, %v) has %v with count %d, a scan %d", where, cols, kv, row.Tuple, got[row.Key()], row.Count)
			}
		})
		if n != len(got) {
			t.Fatalf("%s: Lookup(%v, %v) returned %d rows, a scan %d", where, cols, kv, len(got), n)
		}
	}
}

// The version store's one property test: seeded random streams —
// tiny, bulk, cancelling and count-bumping deltas, each merged into a
// writer's Stored and published, indexes demanded on random column sets
// at random versions, some versions materialized by a reader — must read,
// at every version and through every demanded index, as the sequential
// ⊎-merge does; and a published version keeps reading as it did however
// many compactions and rebases its successors go through on runs they
// share with it.
func TestVersionedChainFlattensLikeSequentialMerge(t *testing.T) {
	type published struct {
		v    *Versioned
		want *Relation
	}
	rng := rand.New(rand.NewSource(7))
	colSets := [][]int{{0}, {1}, {0, 1}}
	for trial := 0; trial < 8; trial++ {
		keys := 20 + rng.Intn(150)
		want := randomDelta(rng, keys, rng.Intn(3*keys))
		p := publish(want.Clone())
		v := p.v
		var demanded [][]int
		var recent []published
		last := New(2)
		for push := 0; push < 4*maxChainDepth+8; push++ {
			var d *Relation
			switch rng.Intn(8) {
			case 0: // a bulk delta: rebases at once
				d = randomDelta(rng, keys, minFlattenRows+rng.Intn(keys))
			case 1: // takes the previous delta back
				d = last.Negate()
			case 2: // bumps the counts of stored rows
				d = New(2)
				for _, row := range want.Rows() {
					if rng.Intn(10) == 0 {
						d.AddRow(row.WithCount(1))
					}
				}
			default:
				d = randomDelta(rng, keys, 1+rng.Intn(40))
			}
			last = d
			where := fmt.Sprintf("trial %d push %d", trial, push)
			recent = append(recent, published{v, want.Clone()})
			v = p.push(d)
			want.MergeDelta(d)
			if !Equal(Materialize(p.s), want) {
				t.Fatalf("%s: the writer's state differs from the sequential merge", where)
			}
			if v.Depth() >= maxChainDepth {
				t.Fatalf("%s: depth %d", where, v.Depth())
			}
			if got := Materialize(v.Reader()); !Equal(got, want) {
				t.Fatalf("%s: chain reads\n  %v\nwant\n  %v", where, got, want)
			}
			for probe := 0; probe < 4; probe++ {
				tup := value.T(rng.Intn(keys), fmt.Sprintf("p%d", rng.Intn(3)))
				if got := v.Reader().Count(tup); got != want.Count(tup) {
					t.Fatalf("%s: Count(%v) = %d, want %d", where, tup, got, want.Count(tup))
				}
			}
			if rng.Intn(3) == 0 { // sometimes a reader materializes the version
				if !Equal(v.Flat(), want) || !v.Flat().Frozen() {
					t.Fatalf("%s: Flat() differs from the sequential merge", where)
				}
			}
			if len(demanded) < len(colSets) && rng.Intn(12) == 0 {
				demanded = append(demanded, colSets[len(demanded)])
			}
			for _, cols := range demanded {
				lookupAgrees(t, rng, keys, v.Reader(), want, cols, where)
			}
			if len(recent) > 12 {
				recent = recent[1:]
			}
			if push%5 == 0 {
				for _, old := range recent {
					if !Equal(Materialize(old.v.Reader()), old.want) {
						t.Fatalf("%s: Push changed a predecessor", where)
					}
					for _, cols := range demanded {
						lookupAgrees(t, rng, keys, old.v.Reader(), old.want, cols, where+": a predecessor")
					}
				}
			}
		}
		if !Equal(v.Flat(), want) {
			t.Fatalf("trial %d: final flat form differs from the sequential merge", trial)
		}
	}
}

// liveBytes reports the heap held by what build returns.
func liveBytes(build func() *Relation) (uint64, *Relation) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, r
	}
	return after.HeapAlloc - before.HeapAlloc, r
}

// A flattened version must not keep a table sized from the chain's
// pending rows, which count a row once per delta that touches it: under a
// delete/re-insert workload that is well above the true size.
func TestFlattenedMapIsNoLargerThanAClone(t *testing.T) {
	// Toggling the same 90 of 3000 rows out and back in, nine links hold
	// 810 pending rows over 2910.
	const n, toggled, links = 3000, 90, 9
	base := New(1)
	for i := 0; i < n; i++ {
		base.Add(value.T(i), 1)
	}
	del, ins := New(1), New(1)
	for i := 0; i < toggled; i++ {
		del.Add(value.T(i), -1)
		ins.Add(value.T(i), 1)
	}
	v := NewVersioned(base)
	flatBytes, flat := liveBytes(func() *Relation {
		for i := 0; i < links; i++ {
			if i%2 == 0 {
				v = v.Push(del)
			} else {
				v = v.Push(ins)
			}
		}
		f := v.Flat()
		v = nil // only the flattened relation stays live
		return f
	})
	cloneBytes, clone := liveBytes(flat.Clone)
	if !Equal(flat, clone) || flat.Len() != n-toggled {
		t.Fatalf("flattened content: %d rows, want %d", flat.Len(), n-toggled)
	}
	// Both share tuples and key strings with base, so each costs its map
	// alone. Allow measurement noise, not a map one size up.
	if flatBytes > cloneBytes+cloneBytes/4 {
		t.Errorf("flattened version holds %d bytes, a Clone of the same content %d", flatBytes, cloneBytes)
	}
	runtime.KeepAlive(base) // or the first measurement nets its collection against flat
	runtime.KeepAlive(flat)
	runtime.KeepAlive(clone)
}

// A row arriving as its canonical key alone (a commit record's delta
// row) resolves against stored content without allocating; only a tuple
// not yet stored is built, from one copy of the key that its strings
// alias — never from the buffer the key arrived in.
func TestRowsResolveFromTheirKeys(t *testing.T) {
	r := buildRelation(500)
	stored := r.Rows()[7]
	kb := stored.Tuple.AppendKey(nil)
	noAllocs(t, "Stored hit", func() { _, _ = r.Stored(kb) })
	got, ok := r.Stored(kb)
	if !ok || !got.Tuple.Equal(stored.Tuple) || got.Count != stored.Count || got.Key() != string(kb) {
		t.Fatalf("Stored(%q) = %v, %v", kb, got, ok)
	}

	fresh := value.T("brand", "new")
	kb = fresh.AppendKey(nil)
	if _, ok := r.Stored(kb); ok {
		t.Fatal("Stored found a tuple that is not there")
	}
	row, err := RowFromKey(kb, 2)
	if err != nil || !row.Tuple.Equal(fresh) || row.Count != 0 || row.Key() != string(kb) {
		t.Fatalf("RowFromKey(%q) = %v, %v", kb, row, err)
	}
	for i := range kb {
		kb[i] = '#' // the payload buffer moves on; the row must not care
	}
	if !row.Tuple.Equal(fresh) || row.Key() != fresh.Key() {
		t.Fatalf("the row aliases the buffer its key came in: %v", row)
	}
	r.AddRow(row.WithCount(2))
	if r.Count(fresh) != 2 {
		t.Fatal("a row built from its key did not merge under that key")
	}
	if _, err := RowFromKey([]byte("s1:a|"), 2); err == nil {
		t.Fatal("RowFromKey accepted a key of the wrong arity")
	}
}

// Push clones its delta so the caller may keep mutating it; a frozen
// delta nobody can mutate, so it becomes a link of the chain as it is.
func TestPushSharesAFrozenDelta(t *testing.T) {
	base := NewVersioned(buildRelation(100))
	d := New(2)
	d.Add(value.T("brand", "new"), 1)
	mutable := base.Push(d)
	d.Add(value.T("still", "mine"), 1) // legal: Push took a copy
	if mutable.Reader().Has(value.T("still", "mine")) {
		t.Fatal("Push did not copy a mutable delta")
	}
	thawed := d.Clone()
	d.Freeze()
	n := testing.AllocsPerRun(100, func() { base.Push(d) })
	if c := testing.AllocsPerRun(100, func() { base.Push(thawed) }); n >= c {
		t.Fatalf("pushing a frozen delta costs %v allocs, a mutable one %v: it was copied", n, c)
	}
	if v := base.Push(d); !v.Reader().Has(value.T("still", "mine")) || v.Flat().Len() != 102 {
		t.Fatal("a frozen delta's rows are missing from the pushed version")
	}
}
