package ivm_test

import (
	"sync"
	"testing"

	"ivm"
)

func TestQueryBasics(t *testing.T) {
	v := mustViews(t, `link(a,b). link(a,c). link(b,b).`,
		`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithSemantics(ivm.DuplicateSemantics))

	// Constants filter; variables bind.
	res, err := v.Query(`link(a, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results: %v", res)
	}
	if res[0].Bindings["X"].Str() != "b" || res[1].Bindings["X"].Str() != "c" {
		t.Fatalf("bindings: %v", res)
	}

	// Repeated variables must agree.
	res, err = v.Query(`link(X, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Bindings["X"].Str() != "b" {
		t.Fatalf("self loops: %v", res)
	}

	// Derived relations carry counts.
	res, err = v.Query(`hop(a, b)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Row.Count != 1 {
		t.Fatalf("hop(a,b): %v", res)
	}

	// All-variable scan.
	res, err = v.Query(`hop(X, Y)`)
	if err != nil {
		t.Fatal(err)
	}
	// hop pairs: (a,b) via link(a,b),link(b,b); (b,b) via link(b,b) twice.
	if len(res) != 2 {
		t.Fatalf("hop scan: %v", res)
	}
}

// The Views' reads are the current version's Snapshot reads, and the
// Snapshot they go through stays on the stack: a read allocates what the
// pinned read does and no more.
func TestViewsReadsAllocateLikeSnapshotReads(t *testing.T) {
	v := mustViews(t, `link(a,b). link(b,c).`, `hop(X,Y) :- link(X,Z), link(Z,Y).`)
	s := v.Snapshot()
	for _, read := range []struct {
		name        string
		views, snap func()
	}{
		{"Count", func() { v.Count("hop", "a", "c") }, func() { s.Count("hop", "a", "c") }},
		{"Has", func() { v.Has("hop", "a", "c") }, func() { s.Has("hop", "a", "c") }},
		{"Rows", func() { v.Rows("hop") }, func() { s.Rows("hop") }},
		{"Query", func() { v.Query("hop(a, X)") }, func() { s.Query("hop(a, X)") }},
	} {
		if got, want := testing.AllocsPerRun(100, read.views), testing.AllocsPerRun(100, read.snap); got != want {
			t.Errorf("Views.%s allocates %.0f objects, Snapshot.%s %.0f", read.name, got, read.name, want)
		}
	}
}

func TestQueryErrorsAndMisses(t *testing.T) {
	v := mustViews(t, `p(a).`, `q(X) :- p(X).`)
	if _, err := v.Query(`broken(`); err == nil {
		t.Fatal("syntax error must surface")
	}
	if _, err := v.Query(`p(X+1)`); err == nil {
		t.Fatal("arithmetic in goals rejected")
	}
	res, err := v.Query(`absent(X)`)
	if err != nil || res != nil {
		t.Fatalf("absent: %v %v", res, err)
	}
	res, err = v.Query(`p(zzz)`)
	if err != nil || len(res) != 0 {
		t.Fatalf("miss: %v %v", res, err)
	}
	// Arity mismatch yields no matches rather than an error.
	res, err = v.Query(`p(X, Y)`)
	if err != nil || len(res) != 0 {
		t.Fatalf("arity mismatch: %v %v", res, err)
	}
}

// TestConcurrentReadersAndWriter exercises the Views lock under -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	v := mustViews(t, `link(a,b). link(b,c).`,
		`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithSemantics(ivm.DuplicateSemantics))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v.Rows("hop")
				v.Count("hop", "a", "c")
				v.Query(`hop(a, X)`)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var u *ivm.Update
		if i%2 == 0 {
			u = ivm.NewUpdate().Insert("link", "c", "d")
		} else {
			u = ivm.NewUpdate().Delete("link", "c", "d")
		}
		if _, err := v.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
