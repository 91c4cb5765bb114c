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
