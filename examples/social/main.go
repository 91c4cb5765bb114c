// Social: a multi-stratum social-network workload combining joins,
// negation and aggregation on one database — friend recommendation
// ("friends of friends I don't already follow"), influencer detection,
// and the set-semantics cascade cut (statement (2) of Algorithm 4.1)
// observable through the engine's statistics.
//
// Run with:
//
//	go run ./examples/social
package main

import (
	"fmt"
	"log"

	"ivm"
)

func main() {
	db := ivm.NewDatabase()
	db.MustLoad(`
		follows(ann, bob).  follows(bob, cay).  follows(cay, dee).
		follows(ann, cay).  follows(dee, ann).  follows(eve, ann).
		follows(eve, bob).  follows(bob, dee).
	`)

	views, err := db.Materialize(`
		% Two-step follow chains.
		fof(X, Y)       :- follows(X, Z), follows(Z, Y).

		% Recommend accounts reachable in two steps that X does not
		% already follow (and that are not X) — negation.
		suggest(X, Y)   :- fof(X, Y), !follows(X, Y), X != Y.

		% Follower counts and influencers — aggregation above a join.
		followers(Y, N) :- groupby(follows(X, Y), [Y], N = count(X)).
		influencer(Y)   :- followers(Y, N), N >= 3.

		% Mutual follows.
		mutual(X, Y)    :- follows(X, Y), follows(Y, X).
	`, ivm.WithSemantics(ivm.SetSemantics))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("suggestions:", tuples(views, "suggest"))
	fmt.Println("influencers:", tuples(views, "influencer"))
	fmt.Println("mutual:", tuples(views, "mutual"))

	// Ann follows one of her suggestions: the suggestion disappears (the
	// negated subgoal now holds) and dee's follower count rises.
	fmt.Println("\n+follows(ann, dee):")
	ch, err := views.Apply(ivm.NewUpdate().Insert("follows", "ann", "dee"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)
	fmt.Println("influencers now:", tuples(views, "influencer"))

	// The engine statistics expose how much delta work an update needs;
	// under set semantics, statement (2) of Algorithm 4.1 stops the
	// cascade whenever counts move but a relation's set image does not.
	fmt.Println("\n+follows(dee, cay):")
	ch, err = views.Apply(ivm.NewUpdate().Insert("follows", "dee", "cay"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)
	st := views.Trace().Stats
	fmt.Printf("delta rules fired: %d, cascades stopped by statement (2): %d\n",
		st.DeltaRulesEvaluated, st.CascadeStopped)

	// ann→bob→dee and ann→cay→dee both derive fof(ann, dee): removing
	// one leg costs that tuple a derivation but not its membership, so
	// Δ(fof) must NOT contain (ann, dee) — the counting algorithm knows a
	// derivation survives without recomputing anything.
	fmt.Println("\n-follows(ann, cay) (fof(ann,dee) keeps a derivation):")
	ch, err = views.Apply(ivm.NewUpdate().Delete("follows", "ann", "cay"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)
	st = views.Trace().Stats
	fmt.Printf("delta rules fired: %d, cascades stopped by statement (2): %d\n",
		st.DeltaRulesEvaluated, st.CascadeStopped)

	// An account deletion in bulk: eve leaves; every edge she touches
	// goes in one maintenance batch.
	fmt.Println("\neve leaves the network:")
	u := ivm.NewUpdate().
		Delete("follows", "eve", "ann").
		Delete("follows", "eve", "bob")
	ch, err = views.Apply(u)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)
	fmt.Println("influencers now:", tuples(views, "influencer"))
}

func tuples(v *ivm.Views, pred string) []string {
	var out []string
	for _, r := range v.Rows(pred) {
		out = append(out, r.Tuple.String())
	}
	return out
}
