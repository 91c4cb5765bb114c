package relation

import (
	"fmt"
	"sync"
	"testing"

	"ivm/internal/value"
)

func tup(vals ...any) value.Tuple { return value.T(vals...) }

// TestShardsMergeEqualsSequential: adding rows through per-worker shards
// concurrently and ⊎-merging must equal adding them to one relation
// sequentially.
func TestShardsMergeEqualsSequential(t *testing.T) {
	const workers, perWorker = 8, 200
	want := New(2)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			want.Add(tup(fmt.Sprintf("a%d", i%37), fmt.Sprintf("b%d", (i*w)%23)), int64(1+i%3))
		}
	}

	sh := NewShards(New(2), workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := sh.Shard(w)
			for i := 0; i < perWorker; i++ {
				out.Add(tup(fmt.Sprintf("a%d", i%37), fmt.Sprintf("b%d", (i*w)%23)), int64(1+i%3))
			}
		}(w)
	}
	wg.Wait()
	got := New(2)
	sh.MergeInto(got)
	if !Equal(want, got) {
		t.Fatalf("sharded merge diverges from sequential:\nwant %s\ngot  %s", want, got)
	}

	// MergeInto must also fold correctly into non-empty destinations.
	dst := New(2)
	dst.Add(tup("seed", "row"), 5)
	sh.MergeInto(dst)
	if dst.Count(tup("seed", "row")) != 5 {
		t.Fatalf("MergeInto clobbered pre-existing row")
	}
	if dst.Len() != want.Len()+1 {
		t.Fatalf("MergeInto length %d, want %d", dst.Len(), want.Len()+1)
	}
}

// TestPartitionViewDisjointCover: the n partition views of a relation
// must cover every row exactly once, with consistent Count/Has/Lookup.
func TestPartitionViewDisjointCover(t *testing.T) {
	r := New(2)
	for i := 0; i < 300; i++ {
		r.Add(tup(fmt.Sprintf("x%d", i%50), fmt.Sprintf("y%d", i%31)), int64(1+i%4))
	}
	for _, parts := range []int{1, 2, 3, 8} {
		union := New(2)
		for p := 0; p < parts; p++ {
			pv := PartitionView(r, p, parts)
			pv.Each(func(row Row) {
				union.Add(row.Tuple, row.Count)
				if pv.Count(row.Tuple) != row.Count {
					t.Fatalf("parts=%d: Count(%s) = %d, want %d", parts, row.Tuple, pv.Count(row.Tuple), row.Count)
				}
				if !pv.Has(row.Tuple) {
					t.Fatalf("parts=%d: Has(%s) = false for owned row", parts, row.Tuple)
				}
			})
		}
		if !Equal(r, union) {
			t.Fatalf("parts=%d: union of partitions differs from relation", parts)
		}
	}

	// Lookup through a partition view filters to owned rows only.
	full := r.Lookup([]int{0}, tup("x7"))
	var partitioned int
	for p := 0; p < 4; p++ {
		partitioned += len(PartitionView(r, p, 4).Lookup([]int{0}, tup("x7")))
	}
	if partitioned != len(full) {
		t.Fatalf("partitioned lookups return %d rows, full lookup %d", partitioned, len(full))
	}
}

// TestConcurrentLookupBuildsIndexOnce: hammering Lookup from many
// goroutines (forcing the lazy index build) must be race-free and agree
// with sequential results. Run with -race to check the guarantee.
func TestConcurrentLookupBuildsIndexOnce(t *testing.T) {
	r := New(2)
	for i := 0; i < 200; i++ {
		r.Add(tup(fmt.Sprintf("k%d", i%20), fmt.Sprintf("v%d", i)), 1)
	}
	want := len(r.Lookup([]int{0}, tup("k3")))

	fresh := New(2)
	r.Each(func(row Row) { fresh.Add(row.Tuple, row.Count) })
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := len(fresh.Lookup([]int{0}, tup("k3"))); got != want {
					t.Errorf("worker %d: lookup returned %d rows, want %d", w, got, want)
					return
				}
				// A second column signature exercises concurrent builds of
				// distinct indexes too.
				fresh.Lookup([]int{1}, tup(fmt.Sprintf("v%d", i)))
			}
		}(w)
	}
	wg.Wait()
}
