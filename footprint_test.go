package ivm_test

import (
	"fmt"
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
