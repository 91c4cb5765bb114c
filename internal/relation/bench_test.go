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
	o.Lookup([]int{0}, key)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Lookup([]int{0}, key)
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
