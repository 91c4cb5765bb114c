package relation

import (
	"fmt"
	"testing"

	"ivm/internal/value"
)

func buildRelation(n int) *Relation {
	r := New(2)
	for i := 0; i < n; i++ {
		r.Add(value.T(fmt.Sprintf("s%d", i%100), fmt.Sprintf("d%d", i)), 1)
	}
	return r
}

func BenchmarkAdd(b *testing.B) {
	b.ReportAllocs()
	r := New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(value.T(fmt.Sprintf("s%d", i%1000), fmt.Sprintf("d%d", i%977)), 1)
	}
}

func BenchmarkCountLookup(b *testing.B) {
	b.ReportAllocs()
	r := buildRelation(10000)
	t := value.T("s5", "d105")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Count(t) != 1 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkIndexedLookup(b *testing.B) {
	b.ReportAllocs()
	r := buildRelation(10000)
	key := value.T("s7")
	r.Lookup([]int{0}, key) // build the index outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Lookup([]int{0}, key)) == 0 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkOverlayLookup(b *testing.B) {
	b.ReportAllocs()
	base := buildRelation(10000)
	delta := New(2)
	for i := 0; i < 100; i++ {
		delta.Add(value.T(fmt.Sprintf("s%d", i%100), fmt.Sprintf("d%d", i)), -1)
	}
	o := Overlay(base, delta)
	key := value.T("s7")
	LookupInto(o, []int{0}, key, new([]Row))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LookupInto(o, []int{0}, key, new([]Row))
	}
}

// BenchmarkOverlayLookupHub merges a hub's base and delta runs of n rows
// each into one reused buffer: the time per probe grows with n, not n².
func BenchmarkOverlayLookupHub(b *testing.B) {
	for _, n := range []int{200, 2000} {
		b.Run(fmt.Sprintf("run=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			o := hubOverlay(n)
			cols, key := []int{0}, value.T("hub")
			var buf []Row
			LookupInto(o, cols, key, &buf)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LookupInto(o, cols, key, &buf)
			}
		})
	}
}

func BenchmarkMergeDelta(b *testing.B) {
	b.ReportAllocs()
	delta := New(2)
	for i := 0; i < 100; i++ {
		delta.Add(value.T(fmt.Sprintf("x%d", i), "y"), 1)
	}
	undo := delta.Negate()
	r := buildRelation(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			r.MergeDelta(delta)
		} else {
			r.MergeDelta(undo)
		}
	}
}

// BenchmarkRelationChurn holds a relation at 10 000 rows while tuples pass
// through it: each iteration deletes the oldest and inserts the next by
// its cached key, so the table never grows and every delete shifts the
// rest of its probe run back. Allocates nothing.
func BenchmarkRelationChurn(b *testing.B) {
	b.ReportAllocs()
	const n = 10000
	ring := make([]Row, 2*n)
	for i := range ring {
		ring[i] = keyed(value.T(fmt.Sprintf("s%d", i%100), fmt.Sprintf("d%d", i)), 1)
	}
	r := New(2)
	for _, row := range ring[:n] {
		r.AddRow(row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Delete(ring[i%len(ring)].Tuple)
		r.AddRow(ring[(i+n)%len(ring)])
	}
}

func BenchmarkToSet(b *testing.B) {
	b.ReportAllocs()
	r := buildRelation(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ToSet()
	}
}

func BenchmarkTupleKey(b *testing.B) {
	b.ReportAllocs()
	t := value.T("some-node-name", int64(123456), 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Key()
	}
}

// BenchmarkTupleAppendKey is BenchmarkTupleKey on the path probes take:
// the same encoding into a stack buffer, with no string built.
func BenchmarkTupleAppendKey(b *testing.B) {
	b.ReportAllocs()
	t := value.T("some-node-name", int64(123456), 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf [value.KeyScratch]byte
		if len(t.AppendKey(buf[:0])) == 0 {
			b.Fatal("empty key")
		}
	}
}

// versionedBase is an n-row relation of n/100 keys.
func versionedBase(n int) *Relation {
	r := New(2)
	for i := 0; i < n; i++ {
		r.Add(value.T(i%(n/100), i), 1)
	}
	return r
}

// BenchmarkVersionedPush publishes a stream of frozen deltas over a
// 100 000-row base: 64 inserts of rows new rows each, then their 64
// deletes, round and round, so the content stays within 64·rows of the
// base. delta=2 is the small-update regime (compaction only: the pending
// rows never reach ¼|base|), delta=1e3 the bulk one (a ratio-triggered
// flatten every ~25 pushes), which must not get slower for it. The base
// has no index: this is the chain alone, with no reader to build one.
func BenchmarkVersionedPush(b *testing.B) {
	for _, rows := range []int{2, 1000} {
		b.Run(fmt.Sprintf("base=1e5,delta=%d", rows), func(b *testing.B) { benchVersionedPush(b, 100_000, 64, rows) })
	}
}

// BenchmarkVersionedPushBulk is the regime where the base copy dominates:
// 500-row deltas over a 40 000-row base (16 inserts, then their deletes),
// so the ratio rule flattens every ~20 pushes and B/op is mostly what a
// row costs in the copied map — the number to quote beside the layered
// benchmark's alloc_kb_per_apply.
func BenchmarkVersionedPushBulk(b *testing.B) { benchVersionedPush(b, 40_000, 16, 500) }

// benchVersionedPush pushes, round and round, cycle frozen inserts of rows
// new rows each and then their deletes onto an n-row base.
func benchVersionedPush(b *testing.B, n, cycle, rows int) {
	b.ReportAllocs()
	deltas := make([]*Relation, 2*cycle)
	for i := 0; i < cycle; i++ {
		ins := New(2)
		for j := 0; j < rows; j++ {
			ins.Add(value.T(j%(n/100), n+i*rows+j), 1)
		}
		deltas[i], deltas[cycle+i] = ins, ins.Negate()
		deltas[i].Freeze()
		deltas[cycle+i].Freeze()
	}
	v := NewVersioned(versionedBase(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = v.Push(deltas[i%len(deltas)])
	}
}

// BenchmarkVersionedLookupAcrossFlatten is what a reader and the writer
// pay between them when a bulk delta flattens a base a reader has indexed:
// the push, which maintains the index through the merge, then the first
// indexed lookup on the version it returns, which used to rebuild it.
func BenchmarkVersionedLookupAcrossFlatten(b *testing.B) {
	b.ReportAllocs()
	const n = 20_000
	v := NewVersioned(versionedBase(n))
	LookupInto(v.Reader(), []int{0}, value.T(7), new([]Row))
	bulk := New(2)
	for i := 0; i < n/4; i++ {
		bulk.Add(value.T(i%(n/100), n+i), 1)
	}
	bulk.Freeze()
	key := value.T(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nv := v.Push(bulk)
		if nv.Depth() != 0 || len(LookupInto(nv.Reader(), []int{0}, key, new([]Row))) != 125 {
			b.Fatal("the bulk push did not flatten, or the lookup missed rows")
		}
	}
}
