// Reachability: recursive transitive closure over a network topology,
// maintained by the DRed algorithm (paper Section 7).
//
// The scenario is a small data-center fabric: hosts connect through
// switches; the reachable view answers "which hosts can talk". Link
// failures delete tuples (DRed overestimates, then rederives pairs that
// survive via redundant paths); repairs insert them back; and the view
// definition itself is extended at runtime with a maintenance rule
// (Section 7's rule insertion).
//
// Run with:
//
//	go run ./examples/reachability
package main

import (
	"fmt"
	"log"

	"ivm"
)

func main() {
	db := ivm.NewDatabase()
	// Two redundant spines (s1, s2) connecting four leaves; hosts hang
	// off leaves. Directed edges both ways model the duplex links.
	db.MustLoad(`
		link(leaf1, s1). link(s1, leaf1).
		link(leaf1, s2). link(s2, leaf1).
		link(leaf2, s1). link(s1, leaf2).
		link(leaf2, s2). link(s2, leaf2).
		link(leaf3, s1). link(s1, leaf3).
		link(leaf3, s2). link(s2, leaf3).
		link(h1, leaf1). link(leaf1, h1).
		link(h2, leaf2). link(leaf2, h2).
		link(h3, leaf3). link(leaf3, h3).
	`)

	views, err := db.Materialize(`
		reach(X,Y) :- link(X,Y).
		reach(X,Y) :- reach(X,Z), link(Z,Y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("strategy:", views.Strategy()) // dred (recursive program)
	fmt.Printf("initially %d reachable pairs; h1→h3: %v\n",
		len(views.Rows("reach")), views.Has("reach", "h1", "h3"))

	// Spine s1 loses its link to leaf3 — redundancy via s2 must keep h1→h3.
	changes, err := views.ApplyScript(`-link(s1, leaf3). -link(leaf3, s1).`)
	if err != nil {
		log.Fatal(err)
	}
	st := views.Trace().Stats
	fmt.Printf("\nafter losing s1↔leaf3: %d pairs deleted, %d overestimated, %d rederived\n",
		len(changes.Deleted("reach")), st.Overestimated, st.Rederived)
	fmt.Println("h1→h3 still reachable (via s2):", views.Has("reach", "h1", "h3"))

	// Now the whole second spine fails: leaf3 is cut off.
	if _, err := views.ApplyScript(`-link(s2, leaf3). -link(leaf3, s2).`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after losing s2↔leaf3, h1→h3 reachable:", views.Has("reach", "h1", "h3"))

	// Repair crews bring a direct leaf2↔leaf3 cable up.
	ch, err := views.ApplyScript(`+link(leaf2, leaf3). +link(leaf3, leaf2).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the repair, %d pairs inserted; h1→h3 reachable: %v\n",
		len(ch.Inserted("reach")), views.Has("reach", "h1", "h3"))

	// Extend the view definition at runtime: tunnels also provide
	// reachability. DRed folds the new rule's derivations in
	// incrementally — no recomputation of the whole closure.
	if _, err := views.AddRule(`reach(X,Y) :- tunnel(X,Y).`); err != nil {
		log.Fatal(err)
	}
	ch, err = views.Apply(ivm.NewUpdate().Insert("tunnel", "h1", "remote9"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter adding the tunnel rule and tunnel(h1, remote9): %d new pairs\n",
		len(ch.Inserted("reach")))
	fmt.Println("h1→remote9 reachable:", views.Has("reach", "h1", "remote9"))
}
