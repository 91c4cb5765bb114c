package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivm/internal/value"
)

func TestVersionedFreezesAndIsImmutable(t *testing.T) {
	r := New(2)
	r.Add(value.T("a", "b"), 1)
	if v := NewVersioned(r); v.Depth() != 0 {
		t.Fatalf("fresh version depth = %d, want 0", v.Depth())
	}
	if !r.Frozen() {
		t.Fatal("NewVersioned must freeze its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a published relation must panic")
		}
	}()
	r.Add(value.T("x", "y"), 1)
}

func TestVersionedPushLeavesPredecessorUnchanged(t *testing.T) {
	base := New(2)
	base.Add(value.T("a", "b"), 1)
	v0 := NewVersioned(base)

	delta := New(2)
	delta.Add(value.T("c", "d"), 2)
	delta.Add(value.T("a", "b"), -1)
	v1 := v0.Push(delta)

	// The caller may keep mutating its delta: Push copies it.
	delta.Add(value.T("zz", "zz"), 7)

	if got := v0.Flat().Count(value.T("a", "b")); got != 1 {
		t.Fatalf("v0 changed: count(a,b) = %d, want 1", got)
	}
	if v0.Flat().Has(value.T("c", "d")) {
		t.Fatal("v0 must not see v1's delta")
	}
	f1 := v1.Flat()
	if f1.Has(value.T("a", "b")) {
		t.Fatal("v1 must see the -1 cancel (a,b)")
	}
	if got := f1.Count(value.T("c", "d")); got != 2 {
		t.Fatalf("v1 count(c,d) = %d, want 2", got)
	}
	if f1.Has(value.T("zz", "zz")) {
		t.Fatal("post-Push delta mutations must not leak into v1")
	}
}

func TestVersionedEmptyPushIsIdentity(t *testing.T) {
	v := NewVersioned(New(2))
	if v.Push(New(2)) != v {
		t.Fatal("pushing an empty delta must return the same version")
	}
}

func TestVersionedDepthBoundAndFlatEquivalence(t *testing.T) {
	// Far more two-row pushes than maxChainDepth over a base they stay
	// small against: compaction alone keeps the depth bounded — the base
	// is never copied — and the chain agrees with the flat form.
	base := New(2)
	for i := 0; i < 8*minFlattenRows; i++ {
		base.Add(value.T(fmt.Sprintf("b%d", i), "v"), 1)
	}
	want := base.Clone()
	v := NewVersioned(base)
	for i := 0; i < 4*maxChainDepth; i++ {
		d := New(2)
		d.Add(value.T(fmt.Sprintf("k%d", i%10), "v"), 1)               // a new row, then count bumps
		d.Add(value.T(fmt.Sprintf("b%d", i/2), "v"), int64(1-2*(i%2))) // bump a base row, then cancel it
		want.MergeDelta(d)
		v = v.Push(d)
		if v.base != base {
			t.Fatalf("push %d: the base was copied", i)
		}
		if v.Depth() >= maxChainDepth {
			t.Fatalf("push %d: depth %d not compacted below maxChainDepth", i, v.Depth())
		}
	}
	// Compaction recounts: 10 rows did not cancel, and at most one
	// chain's worth of two-row links has been pushed since.
	if v.pend > 10+2*maxChainDepth {
		t.Fatalf("%d pending rows above the base after %d cancelling pushes", v.pend, 4*maxChainDepth)
	}
	if got := Materialize(v.Reader()); !Equal(got, want) {
		t.Fatalf("chain reads %d rows, the sequential merge has %d", got.Len(), want.Len())
	}
	if !Equal(v.Flat(), want) || !v.Flat().Frozen() {
		t.Fatal("flattened form must be frozen and equal to the sequential merge")
	}
}

func TestVersionedCompactionOfCancellingLinksReturnsTheBase(t *testing.T) {
	base := New(1)
	base.Add(value.T("a"), 1)
	ins, del := New(1), New(1)
	ins.Add(value.T("x"), 1)
	del.Add(value.T("x"), -1)
	v := NewVersioned(base)
	for i := 0; i < maxChainDepth; i++ {
		if i%2 == 0 {
			v = v.Push(ins)
		} else {
			v = v.Push(del)
		}
	}
	if v.Depth() != 0 || v.Flat() != base {
		t.Fatalf("a chain whose links cancel must compact to the base itself (depth %d)", v.Depth())
	}
}

// publisher publishes deltas as the views do: each is merged into the
// writer's Stored, which rebases by its ratio rule, then published over the
// last version.
type publisher struct {
	s *Stored
	v *Versioned
}

func publish(base *Relation) *publisher {
	s := Store(base)
	return &publisher{s: s, v: s.Publish(nil, nil)}
}

func (p *publisher) push(d *Relation) *Versioned {
	p.s.MergeDelta(d)
	p.v = p.s.Publish(p.v, d)
	return p.v
}

func TestVersionedPendFractionFlattens(t *testing.T) {
	// A single delta holding ≥ max(minFlattenRows, flen/4) rows rebases
	// the writer, and its version is the new base, even at depth 1.
	base := New(1)
	for i := 0; i < 2*minFlattenRows; i++ {
		base.Add(value.T(fmt.Sprintf("b%d", i)), 1)
	}
	p := publish(base)
	d := New(1)
	for i := 0; i < minFlattenRows; i++ {
		d.Add(value.T(fmt.Sprintf("d%d", i)), 1)
	}
	nv := p.push(d)
	if nv.Depth() != 0 {
		t.Fatalf("bulk delta must flatten: depth = %d", nv.Depth())
	}
	if nv.Flat().Len() != 3*minFlattenRows {
		t.Fatalf("flat len = %d, want %d", nv.Flat().Len(), 3*minFlattenRows)
	}
}

func TestVersionedFlatIsCachedAndNotChainedFrom(t *testing.T) {
	v := NewVersioned(New(2))
	d := New(2)
	d.Add(value.T("a", "b"), 1)
	v1 := v.Push(d)
	f := v1.Flat()
	if v1.Flat() != f {
		t.Fatal("Flat must cache its result")
	}
	// A reader's flat form is the reader's copy: the next Push stacks on
	// the chain over the writer's base, never on the copy.
	d2 := New(2)
	d2.Add(value.T("c", "d"), 1)
	v2 := v1.Push(d2)
	if v2.Depth() != 2 || v2.base != v.base {
		t.Fatalf("push over a materialized version: depth = %d, want 2 over the same base", v2.Depth())
	}
}

// A flatten shares the old base's index runs with the new one, and
// readers of the old base hold those runs: the writer must copy a run
// before its first write to it, even an append into spare capacity. Every
// version here has exactly perKey count-1 rows under each key, so a reader
// that sees anything else — or the race detector, under `make race` — has
// caught a write in place.
func TestVersionedSharedRunsUnderConcurrentReaders(t *testing.T) {
	const keys, perKey, pushes, readers = 40, 15, 1200, 3
	base := New(2)
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			base.Add(value.T(k, j), 1)
		}
	}
	var recent [8]atomic.Pointer[Versioned]
	p := publish(base)
	v := p.v
	for i := range recent {
		recent[i].Store(v)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				rd := recent[rng.Intn(len(recent))].Load().Reader()
				k := rng.Intn(keys)
				rows := LookupInto(rd, []int{0}, value.T(k), new([]Row))
				live := 0
				for _, row := range rows {
					if row.Count != 1 || rd.Count(row.Tuple) != 1 {
						errs <- fmt.Sprintf("key %d: row %v has count %d in the run, %d stored", k, row.Tuple, row.Count, rd.Count(row.Tuple))
						return
					}
					live++
				}
				if live != perKey {
					errs <- fmt.Sprintf("key %d: %d rows, every version has %d", k, live, perKey)
					return
				}
			}
		}(int64(r))
	}
	// Each push retires the oldest row of one key and adds its next one,
	// so the writer's net piles up past ¼|base| (rebase) by way of several
	// compactions, over runs the readers are probing.
	flattens, compactions := 0, 0
	for i := 0; i < pushes && len(errs) == 0; i++ {
		k, gen := i%keys, i/keys
		d := New(2)
		d.Add(value.T(k, gen), -1)
		d.Add(value.T(k, gen+perKey), 1)
		prev := v
		v = p.push(d)
		switch {
		case v.base != prev.base:
			flattens++
		case v.Depth() < prev.Depth():
			compactions++
		}
		recent[i%len(recent)].Store(v)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if flattens < 3 || compactions < 3 {
		t.Fatalf("the stream went through %d flattens and %d compactions, want several of each", flattens, compactions)
	}
}

// A run shared across flattens must not keep the base that built it
// reachable: the ownership mark is a flag on the slot. With one run no
// delta ever touches, the first base would otherwise live as long as the
// chain.
func TestVersionedFlattenReleasesTheOldBase(t *testing.T) {
	collected := make(chan struct{})
	w := func() *publisher {
		base := New(2)
		base.Add(value.T("untouched", 0), 1)
		for i := 0; i < 2*minFlattenRows; i++ {
			base.Add(value.T(i%7, i), 1)
		}
		base.Lookup([]int{0}, value.T("untouched"))
		runtime.SetFinalizer(base, func(*Relation) { close(collected) })
		return publish(base)
	}()
	var v *Versioned
	for flattens, i := 0, 0; flattens < 4; i++ {
		d := New(2)
		for j := 0; j < minFlattenRows; j++ {
			d.Add(value.T(j%7, 1000*(i+1)+j), 1)
		}
		prev := w.v.base
		if v = w.push(d); v.base != prev {
			flattens++
		}
	}
	if got := LookupInto(v.Reader(), []int{0}, value.T("untouched"), new([]Row)); len(got) != 1 {
		t.Fatalf("the carried index lost its untouched run: %v", got)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(w)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the first base is still reachable from a version four flattens later")
}

// The retention bound of carved runs (DESIGN.md §10): a build carves
// every run from one array, and a run still shared with a successor pins
// all of it. Once every key of the first base's index has been rewritten,
// nothing refers to that array and it is collected.
func TestVersionedRewrittenRunsReleaseTheirArray(t *testing.T) {
	const keys = 7
	collected := make(chan struct{})
	w := func() *publisher {
		base := New(2)
		for i := 0; i < 2*minFlattenRows; i++ {
			base.Add(value.T(i%keys, i), 1)
		}
		var first Row
		base.Each(func(row Row) {
			if first.Tuple == nil {
				first = row
			}
		})
		// The first cell's key is the build's first key: its run starts the array.
		run := base.run([]int{0}, first.Tuple[:1], keyHash(first.Tuple[:1]))
		runtime.SetFinalizer(&run.pos[0], func(*int32) { close(collected) })
		return publish(base)
	}()
	flatten := func(touched int) {
		d := New(2)
		for j := 0; j < minFlattenRows; j++ {
			d.Add(value.T(j%touched, -1-j), 1)
		}
		d.Freeze()
		prev := w.v.base
		if w.push(d).base == prev {
			t.Fatal("a delta of minFlattenRows rows did not rebase")
		}
	}
	gone := func() bool {
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-collected:
				return true
			case <-time.After(10 * time.Millisecond):
			}
		}
		return false
	}
	flatten(keys - 1) // key keys-1 keeps its shared run
	if gone() {
		t.Fatal("the array was collected while a successor still shares a run carved from it")
	}
	flatten(keys)
	if !gone() {
		t.Fatal("the first base's array is still reachable after every one of its runs was rewritten")
	}
	runtime.KeepAlive(w)
}

// Publishing a small delta must not cost O(|base|), however many times:
// 1 024 two-row pushes over an indexed 100 000-row base allocate less than
// one copy of it, and a flatten hands its indexes on instead of leaving
// the next reader to rebuild them.
func TestPushCostIndependentOfBase(t *testing.T) {
	const n, pushes = 100_000, 1024
	base := New(2)
	for i := 0; i < n; i++ {
		base.Add(value.T(i%1000, i), 1)
	}
	base.Lookup([]int{0}, value.T(7))
	totalAlloc := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	deltas := make([]*Relation, pushes)
	for i := range deltas {
		d := New(2)
		d.Add(value.T(i%1000, i), -1)
		d.Add(value.T(i%1000, n+i), 1)
		d.Freeze()
		deltas[i] = d
	}
	w := publish(base)
	pushed := totalAlloc(func() {
		for _, d := range deltas {
			w.push(d)
		}
	})
	if w.v.base != base {
		t.Fatal("2 048 pending rows over 100 000 copied the base")
	}
	var clone *Relation
	if cloned := totalAlloc(func() { clone = base.Clone() }); pushed >= cloned {
		t.Fatalf("%d pushes allocated %d bytes, one clone of the base %d", pushes, pushed, cloned)
	}
	runtime.KeepAlive(clone)

	bulk := New(2)
	for i := 0; i < n/4; i++ {
		bulk.Add(value.T(i%1000, 2*n+i), 1)
	}
	built := IndexesBuilt()
	nv := w.push(bulk)
	if nv.Depth() != 0 || nv.base == base {
		t.Fatal("a delta of ¼|base| rows did not rebase")
	}
	got := LookupInto(nv.Reader(), []int{0}, value.T(7), new([]Row))
	if IndexesBuilt() != built {
		t.Fatal("the flattened version rebuilt an index its base already had")
	}
	want := 0
	nv.Flat().Each(func(row Row) {
		if row.Tuple[0] == value.NewInt(7) {
			want++
		}
	})
	if len(got) != want || want != n/1000+n/4/1000 {
		t.Fatalf("carried index returns %d rows for key 7, a scan %d", len(got), want)
	}
}

// A link leaves its version chain when compact folds it into a run and
// when its writer rebases: either way it drops the indexes readers built
// on it, which a history's change set holding it would otherwise pin. A
// reader still pinned to a version that links it reads the same rows.
func TestALinkLeavingItsChainDropsItsIndexes(t *testing.T) {
	indexes := func(r *Relation) int {
		r.idxMu.RLock()
		defer r.idxMu.RUnlock()
		return len(r.idx)
	}
	base := New(2)
	for i := range 4 * minFlattenRows {
		base.Add(value.T(i%7, i), 1)
	}
	p := publish(base)
	link := func(rows, tag int) *Relation {
		d := New(2)
		for i := range rows {
			d.Add(value.T(tag, -i-1), 1)
		}
		d.Freeze() // linked as it is, as counting's Δ(head) copy is
		return d
	}
	probe := func(v *Versioned, tag int) []Row {
		return slices.Clone(LookupInto(v.Reader(), []int{0}, value.T(tag), new([]Row)))
	}
	for _, leave := range []struct {
		name string
		by   func(tag int)
	}{
		{"compact", func(tag int) {
			for depth := 0; p.v.Depth() > depth; tag++ {
				depth = p.v.Depth()
				p.push(link(1, tag))
			}
		}},
		{"rebase", func(tag int) {
			for prev := p.v.base; p.v.base == prev; {
				p.push(link(minFlattenRows, tag))
			}
		}},
	} {
		d := link(1, 100)
		old := p.push(d)
		want := probe(old, 100)
		if indexes(d) != 1 || len(want) != 1 {
			t.Fatalf("%s: a reader's probe built %d indexes on the link and read %v", leave.name, indexes(d), want)
		}
		leave.by(200)
		if slices.Contains(p.v.deltas, d) || indexes(d) != 0 {
			t.Fatalf("%s: the link is in the chain: %v; it keeps %d indexes", leave.name, slices.Contains(p.v.deltas, d), indexes(d))
		}
		if got := probe(old, 100); !slices.EqualFunc(got, want, func(a, b Row) bool { return a.Key() == b.Key() && a.Count == b.Count }) {
			t.Fatalf("%s: the pinned version reads %v, it read %v", leave.name, got, want)
		}
	}
}
