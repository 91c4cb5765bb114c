// Aggregation: the paper's min_cost_hop view (Example 6.2) plus SUM /
// COUNT / AVG order-analytics views, maintained by Algorithm 6.1's
// per-group incremental computation.
//
// The scenario: a shipping network with weighted legs, and an order book.
// Only the groups touched by a change are updated, from the change alone:
// when the current minimum leaves, MIN moves to the next value its group
// holds.
//
// Run with:
//
//	go run ./examples/aggregation
package main

import (
	"fmt"
	"log"

	"ivm"
)

func main() {
	db := ivm.NewDatabase()
	// link(Src, Dst, Cost): weighted shipping legs.
	db.MustLoad(`
		link(nyc, chi, 10). link(chi, sfo, 20). link(chi, den, 5).
		link(nyc, atl, 15). link(atl, sfo, 6).
	`)
	// orders(Id, Customer, Amount)
	db.MustLoad(`
		orders(1, acme, 120). orders(2, acme, 80). orders(3, zenith, 50).
	`)

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
		log.Fatal(err)
	}

	fmt.Println("min_cost_hop:")
	for _, r := range views.Rows("min_cost_hop") {
		fmt.Printf("  %v\n", r.Tuple)
	}
	fmt.Println("spend:", tuples(views, "spend"), " vip:", tuples(views, "vip"))

	// A cheaper middle leg appears: nyc→chi→sfo stays 30, but
	// nyc→atl→sfo is 21; insert an even cheaper atl leg.
	fmt.Println("\n+link(atl, sfo, 2): the nyc→sfo minimum drops")
	ch, err := views.ApplyScript(`+link(atl, sfo, 2).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)

	// Delete the current minimum: the group moves to its next value.
	fmt.Println("\n-link(atl, sfo, 2): the group falls back to the previous minimum")
	ch, err = views.ApplyScript(`-link(atl, sfo, 2).`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)

	// Order flow: zenith places a big order and crosses the VIP line.
	fmt.Println("\n+orders(4, zenith, 200):")
	ch, err = views.Apply(ivm.NewUpdate().Insert("orders", 4, "zenith", 200))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)
	fmt.Println("vip now:", tuples(views, "vip"))

	// A return: acme's order 2 is cancelled; spend and avg adjust, and if
	// acme drops below the threshold the vip tuple disappears.
	fmt.Println("\n-orders(2, acme, 80):")
	ch, err = views.Apply(ivm.NewUpdate().Delete("orders", 2, "acme", 80))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ch)
	fmt.Println("vip now:", tuples(views, "vip"))
}

func tuples(v *ivm.Views, pred string) []string {
	var out []string
	for _, r := range v.Rows(pred) {
		out = append(out, r.Tuple.String())
	}
	return out
}
