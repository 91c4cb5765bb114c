// Package workload generates the synthetic relations and change batches
// that the paper's experiments (the benchmarks of internal/experiments)
// and the layered benchmark's streams run on: random/grid/layered link graphs
// (matching the paper's running hop/tri_hop/transitive-closure examples)
// and controllable insert/delete/update mixes.
package workload

import (
	"fmt"
	"math/rand"

	"ivm/internal/relation"
	"ivm/internal/value"
)

// node renders node i as a compact symbolic constant ("n17").
func node(i int) value.Value { return value.NewString(fmt.Sprintf("n%d", i)) }

// RandomGraph returns a binary link relation with m distinct random edges
// over n nodes (no self-loops).
func RandomGraph(rng *rand.Rand, n, m int) *relation.Relation {
	rel := relation.New(2)
	if n < 2 {
		return rel
	}
	if max := n * (n - 1); m > max {
		m = max
	}
	for rel.Len() < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		t := value.Tuple{node(a), node(b)}
		if !rel.Has(t) {
			rel.Add(t, 1)
		}
	}
	return rel
}

// RandomWeightedGraph returns a ternary link(S, D, Cost) relation with m
// distinct random edges over n nodes and integer costs in [1, maxCost].
func RandomWeightedGraph(rng *rand.Rand, n, m, maxCost int) *relation.Relation {
	rel := relation.New(3)
	if n < 2 {
		return rel
	}
	if max := n * (n - 1); m > max {
		m = max
	}
	seen := make(map[string]bool)
	for len(seen) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		pair := value.Tuple{node(a), node(b)}
		k := pair.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		rel.Add(value.Tuple{node(a), node(b), value.NewInt(int64(1 + rng.Intn(maxCost)))}, 1)
	}
	return rel
}

// GridGraph returns a w×h grid with right and down edges — many
// alternative derivations per reachable pair, the regime where DRed's
// rederivation step pays off.
func GridGraph(w, h int) *relation.Relation {
	rel := relation.New(2)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				rel.Add(value.Tuple{node(id(x, y)), node(id(x+1, y))}, 1)
			}
			if y+1 < h {
				rel.Add(value.Tuple{node(id(x, y)), node(id(x, y+1))}, 1)
			}
		}
	}
	return rel
}

// LayeredDAG returns a layered random DAG: layers × width nodes, each
// node linking to fanout random nodes of the next layer. High fanout
// gives many alternative paths, so deletions have small, localized
// effects — the regime where incremental maintenance of recursive views
// pays off.
func LayeredDAG(rng *rand.Rand, layers, width, fanout int) *relation.Relation {
	rel := relation.New(2)
	id := func(layer, i int) int { return layer*width + i }
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			seen := make(map[int]bool)
			for len(seen) < fanout && len(seen) < width {
				j := rng.Intn(width)
				if seen[j] {
					continue
				}
				seen[j] = true
				rel.Add(value.Tuple{node(id(l, i)), node(id(l+1, j))}, 1)
			}
		}
	}
	return rel
}

// SampleDeletes picks k distinct stored tuples of rel uniformly and
// returns them as a deletion delta (count −1 each).
func SampleDeletes(rng *rand.Rand, rel *relation.Relation, k int) *relation.Relation {
	rows := rel.SortedRows() // deterministic base order for reproducibility
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if k > len(rows) {
		k = len(rows)
	}
	out := relation.New(rel.Arity())
	for _, row := range rows[:k] {
		out.Add(row.Tuple, -1)
	}
	return out
}

// SampleInserts returns k distinct random new edges over n nodes that are
// not already in rel, as an insertion delta (count +1 each).
func SampleInserts(rng *rand.Rand, rel *relation.Relation, n, k int) *relation.Relation {
	out := relation.New(2)
	guard := 0
	for out.Len() < k && guard < 100*k+1000 {
		guard++
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		t := value.Tuple{node(a), node(b)}
		if rel.Has(t) || out.Has(t) {
			continue
		}
		out.Add(t, 1)
	}
	return out
}

// Mixed combines deletions and insertions into one batch: delK deletions
// of existing tuples and insK fresh insertions over n nodes.
func Mixed(rng *rand.Rand, rel *relation.Relation, n, delK, insK int) *relation.Relation {
	out := SampleDeletes(rng, rel, delK)
	ins := SampleInserts(rng, rel, n, insK)
	ins.Each(func(row relation.Row) {
		if !out.Has(row.Tuple) && out.Count(row.Tuple) == 0 {
			out.Add(row.Tuple, 1)
		}
	})
	return out
}
