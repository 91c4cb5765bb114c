package ivm_test

// Concurrency test: readers hammer Query/Rows/Count/Explain while a
// writer applies update batches. Run with -race — the point is that the
// Views read discipline holds up under load: a read pins the atomically
// published version and takes no Views lock (a Lookup that builds an index
// synchronizes on that relation's own index mutex), maintenance runs under
// the write mutex and publishes the successor with one pointer store.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ivm"
)

func TestConcurrentReadersDuringUpdates(t *testing.T) {
	db := ivm.NewDatabase()
	for i := 0; i < 40; i++ {
		db.Insert("link", fmt.Sprintf("n%d", i%12), fmt.Sprintf("n%d", (i*5+1)%12))
	}
	v, err := db.Materialize(`
		hop(X,Y) :- link(X,Z), link(Z,Y).
		tri(X,Y) :- hop(X,Z), link(Z,Y).
		only(X,Y) :- tri(X,Y), !hop(X,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Queries with bound columns force index lookups (and
				// therefore lazy index builds) under the read lock.
				if _, err := v.Query(fmt.Sprintf("hop(n%d, X)", i%12)); err != nil {
					errCh <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
				v.Rows("tri")
				v.Count("hop", fmt.Sprintf("n%d", i%12), fmt.Sprintf("n%d", (i+3)%12))
				v.Has("only", "n0", "n1")
				if i%7 == 0 {
					if _, err := v.Explain(fmt.Sprintf("hop(n%d, n%d)", i%12, (i*5+2)%12)); err != nil {
						errCh <- fmt.Errorf("reader %d explain: %w", r, err)
						return
					}
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for round := 0; round < 100; round++ {
			a, b := round%12, (round*7+2)%12
			if a == b {
				continue
			}
			del := ivm.NewUpdate().Delete("link", fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", (a*5+1)%12))
			if v.Has("link", fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", (a*5+1)%12)) {
				if _, err := v.Apply(del); err != nil {
					errCh <- fmt.Errorf("writer delete round %d: %w", round, err)
					return
				}
			}
			ins := ivm.NewUpdate().Insert("link", fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b))
			if _, err := v.Apply(ins); err != nil {
				errCh <- fmt.Errorf("writer insert round %d: %w", round, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// Snapshots share the engine's base relations: eight pinned snapshots are
// read by three goroutines with Query and Count, which build indexes on
// those bases lazily, while the writer's stream takes the engine through
// several rebases, each a new base the old ones' indexes are carried to.
// Every apply retires the oldest row of one key and adds its next, so a
// snapshot at version v holds, under each key k, exactly perKey rows with
// consecutive values from one v fixes: anything else is a row of another
// version. Run with -race.
func TestSnapshotsReadTheirVersionAcrossRebases(t *testing.T) {
	const keys, perKey, applies, readers = 40, 15, 1200, 3
	db := ivm.NewDatabase()
	for k := 0; k < keys; k++ {
		for j := 0; j < perKey; j++ {
			db.Insert("e", k, j)
		}
	}
	v, err := db.Materialize(`pair(K, V) :- e(K, V).`)
	if err != nil {
		t.Fatal(err)
	}
	v0 := v.Snapshot().Version()
	// first is the lowest value key k holds after a applies.
	first := func(k, a int) int { return a/keys + map[bool]int{true: 1}[k < a%keys] }
	var recent [8]atomic.Pointer[ivm.Snapshot]
	for i := range recent {
		recent[i].Store(v.Snapshot())
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				s := recent[i%len(recent)].Load()
				k, a := i%keys, int(s.Version()-v0)
				for _, pred := range []string{"e", "pair"} {
					res, err := s.Query(fmt.Sprintf("%s(%d, V)", pred, k))
					seen := make(map[int64]bool)
					for _, q := range res {
						val := q.Row.Tuple[1].Int()
						if q.Row.Count != 1 || s.Count(pred, k, val) != 1 || val < int64(first(k, a)) || val >= int64(first(k, a)+perKey) {
							err = fmt.Errorf("%s(%d, %d)×%d", pred, k, val, q.Row.Count)
						}
						seen[val] = true
					}
					if err != nil || len(res) != perKey || len(seen) != perKey {
						errs <- fmt.Sprintf("version %d, %s(%d, V): %d rows, %d distinct, want %d from %d (%v)", s.Version(), pred, k, len(res), len(seen), perKey, first(k, a), err)
						return
					}
				}
			}
		}(r)
	}
	rebases := 0
	for a := 0; a < applies && len(errs) == 0; a++ {
		k, gen := a%keys, a/keys
		if _, err := v.Apply(ivm.NewUpdate().Delete("e", k, gen).Insert("e", k, gen+perKey)); err != nil {
			t.Fatal(err)
		}
		if ivm.VersionDepth(v, "e") == 0 {
			rebases++
		}
		recent[a%len(recent)].Store(v.Snapshot())
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if rebases < 3 {
		t.Fatalf("the stream went through %d rebases of e, want at least 3", rebases)
	}
}
