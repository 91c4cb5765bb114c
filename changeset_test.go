package ivm_test

// The ChangeSet's read side: one sort per predicate that also splits
// inserted from deleted, shared by every accessor and — an Apply's
// caller and its OnCommit handlers read one ChangeSet — by every
// goroutine.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ivm"
)

func changeSetViews(t *testing.T) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	for i := 0; i < 30; i++ {
		db.Insert("link", fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", i+1))
	}
	v, err := db.Materialize(`
		hop(X,Y) :- link(X,Z), link(Z,Y).
		tri(X,Y) :- hop(X,Z), link(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A delete and an insert in one update: hop and tri each lose and gain
// rows, so both halves of the split are non-empty.
func mixedChange(t *testing.T, v *ivm.Views) *ivm.ChangeSet {
	t.Helper()
	cs, err := v.Apply(ivm.NewUpdate().
		Delete("link", "n10", "n11").
		Insert("link", "n10", "n20").
		Insert("link", "n05", "n25"))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestChangeSetSplitsOnce: Inserted and Deleted are two views of one
// sorted pass. After the first use neither sorts again — a call costs
// the slice it returns and nothing else — and Delta, Each, Inserted and
// Deleted agree with one another.
func TestChangeSetSplitsOnce(t *testing.T) {
	v := changeSetViews(t)
	cs := mixedChange(t, v)
	if got := cs.Preds(); !reflect.DeepEqual(got, []string{"hop", "tri"}) {
		t.Fatalf("Preds = %v", got)
	}
	for _, pred := range cs.Preds() {
		ins, del := cs.Inserted(pred), cs.Deleted(pred)
		if len(ins) == 0 || len(del) == 0 {
			t.Fatalf("%s: %d inserted, %d deleted — the update must change it both ways", pred, len(ins), len(del))
		}
		sign := make(map[string]int64)
		for _, half := range [][]ivm.Row{ins, del} {
			for i, row := range half {
				if row.Count <= 0 {
					t.Fatalf("%s: count %d reported, want positive", pred, row.Count)
				}
				if i > 0 && half[i-1].Tuple.Compare(row.Tuple) >= 0 {
					t.Fatalf("%s: rows out of tuple order: %v before %v", pred, half[i-1].Tuple, row.Tuple)
				}
			}
		}
		for _, row := range ins {
			sign[row.Tuple.Key()] = row.Count
		}
		for _, row := range del {
			sign[row.Tuple.Key()] = -row.Count
		}
		delta := cs.Delta(pred)
		if len(delta) != len(ins)+len(del) {
			t.Fatalf("%s: Delta has %d rows, Inserted+Deleted %d", pred, len(delta), len(ins)+len(del))
		}
		for i, row := range delta {
			if sign[row.Tuple.Key()] != row.Count {
				t.Fatalf("%s: Delta row %v has count %d, the split says %d", pred, row.Tuple, row.Count, sign[row.Tuple.Key()])
			}
			if i > 0 && delta[i-1].Tuple.Compare(row.Tuple) >= 0 {
				t.Fatalf("%s: Delta out of tuple order", pred)
			}
		}
		// Copies: a caller may do what it likes with its slice.
		ins[0].Count = 99
		if again := cs.Inserted(pred); again[0].Count == 99 {
			t.Fatalf("%s: Inserted handed out the shared slice", pred)
		}
		if n := testing.AllocsPerRun(50, func() {
			cs.Inserted(pred)
			cs.Deleted(pred)
		}); n != 2 {
			t.Errorf("%s: Inserted+Deleted after first use allocated %.0f objects, want 2 (the two result slices: nothing is sorted twice)", pred, n)
		}
	}
	cs.Each(func(pred string, ins, del []ivm.Row) {
		if !reflect.DeepEqual(ins, cs.Inserted(pred)) || !reflect.DeepEqual(del, cs.Deleted(pred)) {
			t.Fatalf("Each(%s) disagrees with Inserted/Deleted", pred)
		}
	})
	if n := testing.AllocsPerRun(50, func() { cs.Each(func(string, []ivm.Row, []ivm.Row) {}) }); n != 0 {
		t.Errorf("Each after first use allocated %.0f objects, want 0", n)
	}
	if cs.Inserted("link") != nil || cs.Deleted("nope") != nil || cs.Delta("nope") != nil {
		t.Fatal("an unchanged predicate must report nil")
	}
}

// TestChangeSetSharedReadsRace: every Apply's caller gets the ChangeSet
// an OnChange handler has already read on the maintainer goroutine, and
// concurrent callers each get their own. The caller and a second reader
// read it at once, while other callers' applies commit; run under -race.
func TestChangeSetSharedReadsRace(t *testing.T) {
	v := changeSetViews(t)
	v.OnChange("hop", func(pred string, ins, del []ivm.Row) {
		for _, row := range ins {
			_ = row.Tuple.Key()
		}
	})
	const callers, rounds = 8, 20
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		shared := make(map[*ivm.ChangeSet]int)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				mid := fmt.Sprintf("m%d_%d", round, c)
				cs, err := v.Apply(ivm.NewUpdate().Insert("link", "n00", mid).Insert("link", mid, "n02"))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				shared[cs]++
				mu.Unlock()
				// First use of a predicate the handler did not read may
				// happen on either goroutine.
				read := make(chan struct{})
				go func() {
					defer close(read)
					_ = cs.String()
				}()
				defer func() { <-read }()
				rows := 0
				for _, pred := range cs.Preds() {
					rows += len(cs.Inserted(pred)) + len(cs.Deleted(pred))
					if len(cs.Delta(pred)) != len(cs.Inserted(pred))+len(cs.Deleted(pred)) {
						t.Errorf("%s: Delta and the split disagree", pred)
					}
				}
				cs.Each(func(_ string, ins, del []ivm.Row) { rows -= len(ins) + len(del) })
				if rows != 0 {
					t.Errorf("Each and Inserted/Deleted disagree by %d rows", rows)
				}
				_ = cs.String()
			}(c)
		}
		wg.Wait()
		if len(shared) != callers {
			t.Fatalf("round %d: %d ChangeSets for %d callers, want one each", round, len(shared), callers)
		}
	}
}
