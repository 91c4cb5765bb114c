// Package workload generates the synthetic relations and change batches
// that the paper's experiments (the benchmarks of internal/experiments)
// and the layered benchmark's streams run on: random/chain/grid link graphs
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

// ChainGraph returns the path 0→1→…→n-1.
func ChainGraph(n int) *relation.Relation {
	rel := relation.New(2)
	for i := 0; i+1 < n; i++ {
		rel.Add(value.Tuple{node(i), node(i + 1)}, 1)
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

// SkewedJoin builds the adversarial cardinality shape for the join
// planner benchmark, for the program
//
//	out(Y,Z) :- req(X), hot(X,Y), wide(X,Z).
//
// hot is small but fans out hugely: hotKeys distinct X values with
// fanout Y rows each. wide is large but selective: wideRows rows whose X
// values are unique, with only the first overlap rows reusing hot's
// keys. A syntactic order (smaller relation first on a bound-count tie)
// joins hot before wide and enumerates fanout rows per Δreq key; a
// cardinality-aware order probes wide first and exits after ≤ overlap
// matches.
func SkewedJoin(hotKeys, fanout, wideRows, overlap int) (hot, wide *relation.Relation) {
	hot = relation.New(2)
	for k := 0; k < hotKeys; k++ {
		for f := 0; f < fanout; f++ {
			hot.Add(value.Tuple{hotKey(k), value.NewString(fmt.Sprintf("y%d_%d", k, f))}, 1)
		}
	}
	wide = relation.New(2)
	for i := 0; i < wideRows; i++ {
		x := value.NewString(fmt.Sprintf("w%d", i))
		if i < overlap {
			x = hotKey(i % hotKeys)
		}
		wide.Add(value.Tuple{x, value.NewString(fmt.Sprintf("z%d", i))}, 1)
	}
	return hot, wide
}

func hotKey(k int) value.Value { return value.NewString(fmt.Sprintf("h%d", k)) }

// SkewedReqKey returns the i-th Δreq key for SkewedJoin data: a hot key,
// so every delta drives the full hot fan-out under a syntactic order.
func SkewedReqKey(hotKeys, i int) value.Value { return hotKey(i % hotKeys) }

// ClusteredDeletes deletes k consecutive tuples (in sorted order) from
// the middle of rel: overlapping effect regions, the worst case for
// per-change fragmented propagation (the PF baseline).
func ClusteredDeletes(rel *relation.Relation, k int) *relation.Relation {
	rows := rel.SortedRows()
	if k > len(rows) {
		k = len(rows)
	}
	start := (len(rows) - k) / 2
	out := relation.New(rel.Arity())
	for _, row := range rows[start : start+k] {
		out.Add(row.Tuple, -1)
	}
	return out
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
