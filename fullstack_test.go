package ivm_test

// Full-stack integration: one program layering joins, recursion,
// aggregation over the recursive view, and negation over the aggregate —
// the deepest stratification the paper's machinery supports. The oracle's
// road-rail family draws it against recompute.

import (
	"testing"

	"ivm"
)

const fullStackProgram = `
	% Stratum 1: recursive reachability over two edge kinds.
	edge(X,Y)   :- road(X,Y).
	edge(X,Y)   :- rail(X,Y).
	reach(X,Y)  :- edge(X,Y).
	reach(X,Y)  :- reach(X,Z), edge(Z,Y).

	% Stratum above: aggregate over the recursive view.
	outdeg(X,N) :- groupby(reach(X,Y), [X], N = count(Y)).

	% Negation over the aggregate view: nodes that reach something but are
	% not hubs (outdegree >= 3).
	hub(X)      :- outdeg(X,N), N >= 3.
	minor(X)    :- outdeg(X,N), !hub(X).
`

func loadFullStack(t *testing.T, strategy ivm.Strategy, facts string) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(facts)
	v, err := db.Materialize(fullStackProgram, ivm.WithStrategy(strategy))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFullStackInitialState(t *testing.T) {
	facts := `road(a,b). road(b,c). rail(c,d). rail(a,e).`
	v := loadFullStack(t, ivm.Auto, facts)
	if v.Strategy() != ivm.Auto { // counting strata below and above the recursive one
		t.Fatalf("strategy: %v", v.Strategy())
	}
	// a reaches b,c,d,e → outdeg 4 → hub.
	if !v.Has("outdeg", "a", 4) || !v.Has("hub", "a") || v.Has("minor", "a") {
		t.Fatalf("a: outdeg=%v hub=%v minor=%v", v.Rows("outdeg"), v.Rows("hub"), v.Rows("minor"))
	}
	// c reaches only d → minor.
	if !v.Has("outdeg", "c", 1) || !v.Has("minor", "c") {
		t.Fatalf("c: %v %v", v.Rows("outdeg"), v.Rows("minor"))
	}
}

func TestFullStackMaintenanceFlipsHubStatus(t *testing.T) {
	facts := `road(a,b). road(b,c). rail(c,d). rail(a,e).`
	v := loadFullStack(t, ivm.Auto, facts)

	// Breaking a→b drops a's reach to {e} → a stops being a hub and
	// becomes minor; the change flows recursion → aggregate → negation.
	ch, err := v.Apply(ivm.NewUpdate().Delete("road", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Has("hub", "a") || !v.Has("minor", "a") || !v.Has("outdeg", "a", 1) {
		t.Fatalf("after break: outdeg=%v hub=%v minor=%v", v.Rows("outdeg"), v.Rows("hub"), v.Rows("minor"))
	}
	if len(ch.Deleted("hub")) != 1 || len(ch.Inserted("minor")) != 1 {
		t.Fatalf("changes: %v", ch)
	}

	// Restoring via rail (the other edge kind, same batch as an unrelated
	// insert) flips it back.
	_, err = v.Apply(ivm.NewUpdate().Insert("rail", "a", "b").Insert("road", "e", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has("hub", "a") || v.Has("minor", "a") {
		t.Fatalf("after repair: %v %v", v.Rows("hub"), v.Rows("minor"))
	}
	// e now reaches everything through a.
	if !v.Has("hub", "e") {
		t.Fatalf("e should be a hub: %v", v.Rows("outdeg"))
	}
}
