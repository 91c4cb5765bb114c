package ivm_test

// Godoc examples: runnable documentation with verified output. The
// Example_<name> walkthroughs play the paper's worked examples through
// the API; `go test -run Example -v .` runs them all.

import (
	"fmt"
	"sort"
	"strings"

	"ivm"
)

// Example_quickstart reproduces the paper's Example 1.1: materialize the
// hop view, delete link(a,b), and observe that counting keeps hop(a,c)
// (one derivation left) while hop(a,e) disappears.
func Example_quickstart() {
	db := ivm.NewDatabase()
	// link = {ab, bc, be, ad, dc} — Example 1.1's base relation.
	db.MustLoad(`link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).`)

	// hop(c,d) holds when c reaches d in exactly two links. Duplicate
	// semantics keeps SQL multiset counts, so hop(a,c) — derivable via b
	// and via d — carries count 2.
	views, err := db.Materialize(
		`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithSemantics(ivm.DuplicateSemantics),
	)
	if err != nil {
		panic(err)
	}
	show := func() {
		for _, r := range views.Rows("hop") {
			fmt.Printf("  hop%v  count=%d\n", r.Tuple, r.Count)
		}
	}
	fmt.Println("strategy:", views.Strategy())
	fmt.Println("count(hop(a,c)):", views.Count("hop", "a", "c"))
	fmt.Println("initial hop view (tuple → derivation count):")
	show()

	// Delete link(a,b). hop(a,e) loses its only derivation; hop(a,c)
	// drops from 2 derivations to 1 and must survive.
	changes, err := views.Apply(ivm.NewUpdate().Delete("link", "a", "b"))
	if err != nil {
		panic(err)
	}
	fmt.Println("after -link(a,b):")
	fmt.Print(changes) // Δ notation, like the paper
	fmt.Println("maintained hop view:")
	show()
	fmt.Println("hop(a,c) survives:", views.Has("hop", "a", "c"))
	fmt.Println("hop(a,e) survives:", views.Has("hop", "a", "e"))
	// Output:
	// strategy: counting
	// count(hop(a,c)): 2
	// initial hop view (tuple → derivation count):
	//   hop(a, c)  count=2
	//   hop(a, e)  count=1
	// after -link(a,b):
	// Δ(hop) = {(a, c) -1, (a, e) -1}
	// maintained hop view:
	//   hop(a, c)  count=1
	// hop(a,c) survives: true
	// hop(a,e) survives: false
}

// ExampleViews_AddRule shows Section 7's rule insertion maintenance on a
// recursive view.
func ExampleViews_AddRule() {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). tunnel(b,c).`)
	views, err := db.Materialize(`
		reach(X,Y) :- link(X,Y).
		reach(X,Y) :- reach(X,Z), reach(Z,Y).
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println("a reaches c:", views.Has("reach", "a", "c"))

	if _, err := views.AddRule(`reach(X,Y) :- tunnel(X,Y).`); err != nil {
		panic(err)
	}
	fmt.Println("after the tunnel rule, a reaches c:", views.Has("reach", "a", "c"))
	// Output:
	// a reaches c: false
	// after the tunnel rule, a reaches c: true
}

// ExampleViews_Explain enumerates the derivations behind a stored count.
func ExampleViews_Explain() {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c). link(a,d). link(d,c).`)
	views, err := db.Materialize(
		`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithSemantics(ivm.DuplicateSemantics),
	)
	if err != nil {
		panic(err)
	}
	ds, err := views.Explain(`hop(a, c)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("derivations:", len(ds))
	lines := make([]string, len(ds))
	for i, d := range ds {
		lines[i] = fmt.Sprintf("%s%s and %s%s",
			d.Subgoals[0].Pred, d.Subgoals[0].Tuple,
			d.Subgoals[1].Pred, d.Subgoals[1].Tuple)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// derivations: 2
	// link(a, b) and link(b, c)
	// link(a, d) and link(d, c)
}

// ExampleViews_Query shows goal queries with variable bindings.
func ExampleViews_Query() {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(a,c). link(b,c).`)
	views, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		panic(err)
	}
	results, err := views.Query(`link(a, X)`)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Println("X =", r.Bindings["X"])
	}
	// Output:
	// X = b
	// X = c
}

// ExampleDatabase_MaterializeSQL drives the engine from SQL, the paper's
// own surface syntax in Example 1.1.
func ExampleDatabase_MaterializeSQL() {
	db := ivm.NewDatabase()
	views, err := db.MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a','b'), ('b','c');
		CREATE VIEW hop(s, d) AS
		  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println("hop(a,c):", views.Has("hop", "a", "c"))

	if _, err := views.Apply(ivm.NewUpdate().Delete("link", "b", "c")); err != nil {
		panic(err)
	}
	fmt.Println("after DELETE, hop(a,c):", views.Has("hop", "a", "c"))
	// Output:
	// hop(a,c): true
	// after DELETE, hop(a,c): false
}

// Example_reachability maintains a recursive transitive closure over a
// data-center fabric with DRed (paper Section 7): hosts connect through
// leaves to two redundant spines. Link failures delete tuples (DRed
// overestimates, then rederives the pairs that survive via the other
// spine), a repair inserts them back, and a tunnel rule extends the view
// definition at runtime (Section 7's rule insertion).
func Example_reachability() {
	db := ivm.NewDatabase()
	// Directed edges both ways model the duplex links.
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
		panic(err)
	}
	fmt.Println("strategy:", views.Strategy()) // dred (recursive program)
	fmt.Printf("initially %d reachable pairs; h1→h3: %v\n",
		len(views.Rows("reach")), views.Has("reach", "h1", "h3"))

	// Spine s1 loses its link to leaf3 — redundancy via s2 must keep h1→h3.
	changes, err := views.ApplyScript(`-link(s1, leaf3). -link(leaf3, s1).`)
	if err != nil {
		panic(err)
	}
	st := views.Trace().Stats
	fmt.Printf("\nafter losing s1↔leaf3: %d pairs deleted, %d overestimated, %d rederived\n",
		len(changes.Deleted("reach")), st.Overestimated, st.Rederived)
	fmt.Println("h1→h3 still reachable (via s2):", views.Has("reach", "h1", "h3"))

	// Now the whole second spine fails: leaf3 is cut off.
	if _, err := views.ApplyScript(`-link(s2, leaf3). -link(leaf3, s2).`); err != nil {
		panic(err)
	}
	fmt.Println("after losing s2↔leaf3, h1→h3 reachable:", views.Has("reach", "h1", "h3"))

	// Repair crews bring a direct leaf2↔leaf3 cable up.
	ch, err := views.ApplyScript(`+link(leaf2, leaf3). +link(leaf3, leaf2).`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after the repair, %d pairs inserted; h1→h3 reachable: %v\n",
		len(ch.Inserted("reach")), views.Has("reach", "h1", "h3"))

	// Tunnels also provide reachability: DRed folds the new rule's
	// derivations in incrementally, with no recomputation of the closure.
	if _, err := views.AddRule(`reach(X,Y) :- tunnel(X,Y).`); err != nil {
		panic(err)
	}
	ch, err = views.Apply(ivm.NewUpdate().Insert("tunnel", "h1", "remote9"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nafter adding the tunnel rule and tunnel(h1, remote9): %d new pairs\n",
		len(ch.Inserted("reach")))
	fmt.Println("h1→remote9 reachable:", views.Has("reach", "h1", "remote9"))
	// Output:
	// strategy: dred
	// initially 64 reachable pairs; h1→h3: true
	//
	// after losing s1↔leaf3: 0 pairs deleted, 64 overestimated, 64 rederived
	// h1→h3 still reachable (via s2): true
	// after losing s2↔leaf3, h1→h3 reachable: false
	// after the repair, 24 pairs inserted; h1→h3 reachable: true
	//
	// after adding the tunnel rule and tunnel(h1, remote9): 1 new pairs
	// h1→remote9 reachable: true
}

// Example_aggregation maintains the paper's min_cost_hop view (Example
// 6.2) over weighted shipping legs, and SUM, COUNT and AVG views over an
// order book, by Algorithm 6.1's per-group incremental computation: only
// the groups a change touches are updated, from the change alone, and
// when the current minimum leaves, MIN moves to the next value its group
// holds.
func Example_aggregation() {
	db := ivm.NewDatabase()
	// link(Src, Dst, Cost): weighted shipping legs.
	db.MustLoad(`
		link(nyc, chi, 10). link(chi, sfo, 20). link(chi, den, 5).
		link(nyc, atl, 15). link(atl, sfo, 6).
	`)
	// orders(Id, Customer, Amount)
	db.MustLoad(`orders(1, acme, 120). orders(2, acme, 80). orders(3, zenith, 50).`)

	views, err := db.Materialize(`
		% Two-leg routes with total cost (arithmetic in the head).
		hop(S, D, C1+C2)    :- link(S, I, C1), link(I, D, C2).

		% Example 6.2: cheapest two-leg route per (source, destination).
		min_cost_hop(S,D,M) :- groupby(hop(S, D, C), [S, D], M = min(C)).

		% Order analytics: spend, order count and average per customer.
		spend(Cust, Total)  :- groupby(orders(Id, Cust, Amt), [Cust], Total = sum(Amt)).
		norders(Cust, N)    :- groupby(orders(Id, Cust, Amt), [Cust], N = count(Id)).
		avgorder(Cust, A)   :- groupby(orders(Id, Cust, Amt), [Cust], A = avg(Amt)).

		% Customers whose total spend clears a threshold.
		vip(Cust)           :- spend(Cust, Total), Total > 150.
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		panic(err)
	}

	fmt.Println("min_cost_hop:")
	for _, r := range views.Rows("min_cost_hop") {
		fmt.Printf("  %v\n", r.Tuple)
	}
	fmt.Println("spend:", tuples(views, "spend"), " vip:", tuples(views, "vip"))

	// nyc→chi→sfo costs 30 and nyc→atl→sfo 21; an even cheaper atl leg
	// lowers the minimum, and deleting it restores the previous one.
	applyAndPrint(views, "\n+link(atl, sfo, 2): the nyc→sfo minimum drops",
		ivm.NewUpdate().Insert("link", "atl", "sfo", 2))
	applyAndPrint(views, "\n-link(atl, sfo, 2): the group falls back to the previous minimum",
		ivm.NewUpdate().Delete("link", "atl", "sfo", 2))

	// zenith places a big order and crosses the VIP line; then acme's
	// order 2 is cancelled, and acme drops below it.
	applyAndPrint(views, "\n+orders(4, zenith, 200):", ivm.NewUpdate().Insert("orders", 4, "zenith", 200))
	fmt.Println("vip now:", tuples(views, "vip"))
	applyAndPrint(views, "\n-orders(2, acme, 80):", ivm.NewUpdate().Delete("orders", 2, "acme", 80))
	fmt.Println("vip now:", tuples(views, "vip"))
	// Output:
	// min_cost_hop:
	//   (nyc, den, 15)
	//   (nyc, sfo, 21)
	// spend: [(acme, 200) (zenith, 50)]  vip: [(acme)]
	//
	// +link(atl, sfo, 2): the nyc→sfo minimum drops
	// Δ(hop) = {(nyc, sfo, 17)}
	// Δ(min_cost_hop) = {(nyc, sfo, 17), (nyc, sfo, 21) -1}
	//
	// -link(atl, sfo, 2): the group falls back to the previous minimum
	// Δ(hop) = {(nyc, sfo, 17) -1}
	// Δ(min_cost_hop) = {(nyc, sfo, 17) -1, (nyc, sfo, 21)}
	//
	// +orders(4, zenith, 200):
	// Δ(avgorder) = {(zenith, 50.0) -1, (zenith, 125.0)}
	// Δ(norders) = {(zenith, 1) -1, (zenith, 2)}
	// Δ(spend) = {(zenith, 50) -1, (zenith, 250)}
	// Δ(vip) = {(zenith)}
	// vip now: [(acme) (zenith)]
	//
	// -orders(2, acme, 80):
	// Δ(avgorder) = {(acme, 100.0) -1, (acme, 120.0)}
	// Δ(norders) = {(acme, 1), (acme, 2) -1}
	// Δ(spend) = {(acme, 120), (acme, 200) -1}
	// Δ(vip) = {(acme) -1}
	// vip now: [(zenith)]
}

// Example_social combines joins, negation and aggregation over one
// social network: friend suggestions ("friends of friends I don't
// already follow"), influencers, and mutual follows. The engine's
// statistics show the delta work each update needs, and under set
// semantics how often statement (2) of Algorithm 4.1 cut a cascade.
func Example_social() {
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
		panic(err)
	}
	stats := func() {
		st := views.Trace().Stats
		fmt.Printf("delta rules fired: %d, cascades stopped by statement (2): %d\n",
			st.DeltaRulesEvaluated, st.CascadeStopped)
	}

	fmt.Println("suggestions:", tuples(views, "suggest"))
	fmt.Println("influencers:", tuples(views, "influencer"))
	fmt.Println("mutual:", tuples(views, "mutual"))

	// Ann follows one of her suggestions: the suggestion disappears (the
	// negated subgoal now holds) and dee's follower count rises.
	applyAndPrint(views, "\n+follows(ann, dee):", ivm.NewUpdate().Insert("follows", "ann", "dee"))
	fmt.Println("influencers now:", tuples(views, "influencer"))

	applyAndPrint(views, "\n+follows(dee, cay):", ivm.NewUpdate().Insert("follows", "dee", "cay"))
	stats()

	// ann→bob→dee and ann→cay→dee both derive fof(ann, dee): removing
	// one leg costs that tuple a derivation but not its membership, so
	// Δ(fof) does not contain (ann, dee).
	applyAndPrint(views, "\n-follows(ann, cay) (fof(ann,dee) keeps a derivation):",
		ivm.NewUpdate().Delete("follows", "ann", "cay"))
	stats()

	// eve leaves: every edge she touches goes in one maintenance batch.
	applyAndPrint(views, "\neve leaves the network:",
		ivm.NewUpdate().Delete("follows", "eve", "ann").Delete("follows", "eve", "bob"))
	fmt.Println("influencers now:", tuples(views, "influencer"))
	// Output:
	// suggestions: [(ann, dee) (bob, ann) (cay, ann) (dee, bob) (dee, cay) (eve, cay) (eve, dee)]
	// influencers: []
	// mutual: []
	//
	// +follows(ann, dee):
	// Δ(fof) = {(ann, ann), (dee, dee)}
	// Δ(followers) = {(dee, 2) -1, (dee, 3)}
	// Δ(influencer) = {(dee)}
	// Δ(mutual) = {(ann, dee), (dee, ann)}
	// Δ(suggest) = {(ann, dee) -1}
	// influencers now: [(dee)]
	//
	// +follows(dee, cay):
	// Δ(fof) = {(bob, cay), (cay, cay)}
	// Δ(followers) = {(cay, 2) -1, (cay, 3)}
	// Δ(influencer) = {(cay)}
	// Δ(mutual) = {(cay, dee), (dee, cay)}
	// Δ(suggest) = {(dee, cay) -1}
	// delta rules fired: 8, cascades stopped by statement (2): 0
	//
	// -follows(ann, cay) (fof(ann,dee) keeps a derivation):
	// Δ(fof) = {(dee, cay) -1}
	// Δ(followers) = {(cay, 2), (cay, 3) -1}
	// Δ(influencer) = {(cay) -1}
	// Δ(suggest) = {(ann, cay)}
	// delta rules fired: 8, cascades stopped by statement (2): 0
	//
	// eve leaves the network:
	// Δ(fof) = {(eve, bob) -1, (eve, cay) -1, (eve, dee) -1}
	// Δ(followers) = {(ann, 1), (ann, 2) -1, (bob, 1), (bob, 2) -1}
	// Δ(suggest) = {(eve, cay) -1, (eve, dee) -1}
	// influencers now: [(dee)]
}

// Example_sqlviews drives the engine entirely through the SQL front end
// — schema, data, joins, NOT EXISTS and GROUP BY, as the paper's
// introduction defines views (Example 1.1's CREATE VIEW) — and prints
// the Datalog program the views translate to.
func Example_sqlviews() {
	db := ivm.NewDatabase()
	views, err := db.MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES
		  ('a','b'), ('b','c'), ('b','e'), ('a','d'), ('d','c');

		-- Example 1.1, verbatim shape.
		CREATE VIEW hop(s, d) AS
		  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;

		-- A second stratum over the first.
		CREATE VIEW tri_hop(s, d) AS
		  SELECT h.s, l.d FROM hop h, link l WHERE h.d = l.s;

		-- Example 6.1's negation, in SQL.
		CREATE VIEW only_tri_hop(s, d) AS
		  SELECT t.s, t.d FROM tri_hop t
		  WHERE NOT EXISTS (SELECT * FROM hop h WHERE h.s = t.s AND h.d = t.d);

		-- Fan-out analytics with GROUP BY + HAVING.
		CREATE VIEW fanout(s, n) AS
		  SELECT s, COUNT(*) AS n FROM link GROUP BY s HAVING COUNT(*) >= 2;
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		panic(err)
	}
	fmt.Println("translated program:")
	for _, line := range strings.Split(strings.TrimSpace(views.ProgramSource()), "\n") {
		fmt.Println("  " + line)
	}
	// A view prints as its tuples, each with its count when that is not
	// 1, or as ∅.
	show := func(pred string) {
		var ts []string
		for _, r := range views.Rows(pred) {
			if t := r.Tuple.String(); r.Count == 1 {
				ts = append(ts, t)
			} else {
				ts = append(ts, fmt.Sprintf("%s×%d", t, r.Count))
			}
		}
		if ts == nil {
			ts = []string{"∅"}
		}
		fmt.Printf("%s = %s\n", pred, strings.Join(ts, ", "))
	}
	fmt.Println("\ninitial state:")
	for _, pred := range []string{"hop", "tri_hop", "only_tri_hop", "fanout"} {
		show(pred)
	}

	// The paper's deletion, via the same Update API as Datalog views.
	fmt.Println("\nafter DELETE link('a','b'):")
	ch, err := views.Apply(ivm.NewUpdate().Delete("link", "a", "b"))
	if err != nil {
		panic(err)
	}
	fmt.Print(ch)
	show("hop")
	show("fanout")
	// Output:
	// translated program:
	//   hop(V0, V2) :- link(V0, V1), link(V1, V2).
	//   tri_hop(V0, V2) :- hop(V0, V1), link(V1, V2).
	//   only_tri_hop(V0, V1) :- tri_hop(V0, V1), !hop(V0, V1).
	//   fanout__g0(V0, V1, 1) :- link(V0, V1).
	//   fanout(G0, M) :- groupby(fanout__g0(G0, R0, C), [G0], M = count(C)), M >= 2.
	//
	// initial state:
	// hop = (a, c)×2, (a, e)
	// tri_hop = ∅
	// only_tri_hop = ∅
	// fanout = (a, 2), (b, 2)
	//
	// after DELETE link('a','b'):
	// Δ(fanout) = {(a, 2) -1}
	// Δ(hop) = {(a, c) -1, (a, e) -1}
	// hop = (a, c)
	// fanout = (b, 2)
}

// Example_provenance shows both sides of the counting algorithm's trade
// ("we store only the number of derivations, not the derivations
// themselves", paper Section 1): a count says how robust a tuple is for
// free, and Explain enumerates the actual derivations on demand — here
// to audit which suppliers support which deliverable parts.
func Example_provenance() {
	db := ivm.NewDatabase()
	db.MustLoad(`
		supplies(acme,  bolts).  supplies(acme,  nuts).
		supplies(bcorp, bolts).  supplies(bcorp, plates).
		supplies(cinc,  nuts).
		needs(widget, bolts).    needs(widget, nuts).
		needs(gadget, plates).
	`)
	views, err := db.Materialize(`
		% A part is sourced if some supplier provides it; counts = #suppliers.
		sourced(Part)          :- supplies(Sup, Part).
		% A product is buildable from a given supplier pair...
		can_build(Prod)        :- needs(Prod, Part), supplies(Sup, Part).
		% ...and at risk if some needed part has no supplier.
		at_risk(Prod)          :- needs(Prod, Part), !sourced(Part).
		% Supplier criticality: how many needed parts they cover.
		coverage(Sup, N)       :- groupby(cover(Sup, Part), [Sup], N = count(Part)).
		cover(Sup, Part)       :- supplies(Sup, Part), needs(Prod, Part).
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		panic(err)
	}
	explain := func(goal string) []ivm.Derivation {
		ds, err := views.Explain(goal)
		if err != nil {
			panic(err)
		}
		return ds
	}

	// Counts as robustness: sourced(bolts) has two derivations (acme,
	// bcorp) — losing one supplier cannot unsource it.
	for _, part := range []string{"bolts", "nuts", "plates"} {
		fmt.Printf("sourced(%s): %d supplier derivation(s)\n", part, views.Count("sourced", part))
	}
	fmt.Println("\nderivations of sourced(bolts):")
	for i, d := range explain(`sourced(bolts)`) {
		fmt.Printf("  %d. via %s\n", i+1, d.Rule)
		for _, sg := range d.Subgoals {
			fmt.Printf("     %s%s\n", sg.Pred, sg.Tuple)
		}
	}

	res, err := views.Query(`coverage(Sup, N)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nsupplier coverage of needed parts:")
	for _, r := range res {
		fmt.Printf("  %s covers %s needed part(s)\n", r.Bindings["Sup"], r.Bindings["N"])
	}

	// Incremental what-if: bcorp exits the market.
	fmt.Println("\nbcorp exits:")
	ch, err := views.ApplyScript(`-supplies(bcorp, bolts). -supplies(bcorp, plates).`)
	if err != nil {
		panic(err)
	}
	fmt.Print(ch)
	fmt.Println("bolts still sourced (acme remains):", views.Has("sourced", "bolts"))
	fmt.Println("gadget now at risk:", views.Has("at_risk", "gadget"))
	for _, d := range explain(`at_risk(gadget)`) {
		fmt.Println("because:")
		for _, sg := range d.Subgoals {
			mark := ""
			if sg.Negated {
				mark = "no "
			}
			fmt.Printf("  %s%s%s\n", mark, sg.Pred, sg.Tuple)
		}
	}
	// Output:
	// sourced(bolts): 2 supplier derivation(s)
	// sourced(nuts): 2 supplier derivation(s)
	// sourced(plates): 1 supplier derivation(s)
	//
	// derivations of sourced(bolts):
	//   1. via sourced(Part) :- supplies(Sup, Part).
	//      supplies(acme, bolts)
	//   2. via sourced(Part) :- supplies(Sup, Part).
	//      supplies(bcorp, bolts)
	//
	// supplier coverage of needed parts:
	//   acme covers 2 needed part(s)
	//   bcorp covers 2 needed part(s)
	//   cinc covers 1 needed part(s)
	//
	// bcorp exits:
	// Δ(at_risk) = {(gadget)}
	// Δ(can_build) = {(gadget) -1, (widget) -1}
	// Δ(cover) = {(bcorp, bolts) -1, (bcorp, plates) -1}
	// Δ(coverage) = {(bcorp, 2) -1}
	// Δ(sourced) = {(bolts) -1, (plates) -1}
	// bolts still sourced (acme remains): true
	// gadget now at risk: true
	// because:
	//   needs(gadget, plates)
	//   no sourced(plates)
}

// applyAndPrint prints title, applies u to v and prints its changes.
func applyAndPrint(v *ivm.Views, title string, u *ivm.Update) {
	fmt.Println(title)
	ch, err := v.Apply(u)
	if err != nil {
		panic(err)
	}
	fmt.Print(ch)
}

// tuples renders pred's rows as their tuples, sorted.
func tuples(v *ivm.Views, pred string) []string {
	var out []string
	for _, r := range v.Rows(pred) {
		out = append(out, r.Tuple.String())
	}
	return out
}
