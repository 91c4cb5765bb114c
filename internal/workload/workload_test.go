package workload

import (
	"math/rand"
	"testing"

	"ivm/internal/relation"
	"ivm/internal/value"
)

func TestRandomGraphShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomGraph(rng, 20, 50)
	if g.Len() != 50 || g.Arity() != 2 {
		t.Fatalf("len=%d arity=%d", g.Len(), g.Arity())
	}
	g.Each(func(r relation.Row) {
		if r.Count != 1 {
			t.Fatal("edges have count 1")
		}
		if r.Tuple[0] == r.Tuple[1] {
			t.Fatal("no self loops")
		}
	})
	if RandomGraph(rng, 1, 10).Len() != 0 {
		t.Fatal("degenerate n")
	}
}

func TestRandomWeightedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomWeightedGraph(rng, 10, 30, 5)
	if g.Len() != 30 || g.Arity() != 3 {
		t.Fatalf("len=%d", g.Len())
	}
	pairs := make(map[string]bool)
	g.Each(func(r relation.Row) {
		c := r.Tuple[2].Int()
		if c < 1 || c > 5 {
			t.Fatalf("cost out of range: %d", c)
		}
		k := value.Tuple{r.Tuple[0], r.Tuple[1]}.Key()
		if pairs[k] {
			t.Fatal("duplicate endpoint pair")
		}
		pairs[k] = true
	})
}

func TestChainCycleGrid(t *testing.T) {
	if ChainGraph(5).Len() != 4 {
		t.Fatal("chain edges")
	}
	if CycleGraph(5).Len() != 5 {
		t.Fatal("cycle edges")
	}
	g := GridGraph(3, 4)
	// right edges: 2*4, down edges: 3*3
	if g.Len() != 2*4+3*3 {
		t.Fatalf("grid edges: %d", g.Len())
	}
}

func TestScaleFreeConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ScaleFree(rng, 50, 2)
	if g.Len() < 50 {
		t.Fatalf("edges: %d", g.Len())
	}
	g.Each(func(r relation.Row) {
		if r.Tuple[0] == r.Tuple[1] {
			t.Fatal("no self loops")
		}
	})
}

func TestSampleDeletes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := ChainGraph(20)
	d := SampleDeletes(rng, g, 5)
	if d.Len() != 5 {
		t.Fatalf("deletes: %d", d.Len())
	}
	d.Each(func(r relation.Row) {
		if r.Count != -1 || !g.Has(r.Tuple) {
			t.Fatalf("bad delete row: %v", r)
		}
	})
	// Requesting more than available clamps.
	if SampleDeletes(rng, ChainGraph(3), 10).Len() != 2 {
		t.Fatal("clamp")
	}
}

func TestSampleInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := ChainGraph(10)
	ins := SampleInserts(rng, g, 10, 8)
	if ins.Len() != 8 {
		t.Fatalf("inserts: %d", ins.Len())
	}
	ins.Each(func(r relation.Row) {
		if r.Count != 1 || g.Has(r.Tuple) {
			t.Fatalf("bad insert row: %v", r)
		}
	})
}

func TestMixedDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := GridGraph(4, 4)
	d := Mixed(rng, g, 16, 3, 3)
	pos, neg := 0, 0
	d.Each(func(r relation.Row) {
		switch {
		case r.Count == 1:
			pos++
			if g.Has(r.Tuple) {
				t.Fatal("insert of existing tuple")
			}
		case r.Count == -1:
			neg++
			if !g.Has(r.Tuple) {
				t.Fatal("delete of absent tuple")
			}
		default:
			t.Fatalf("bad count %d", r.Count)
		}
	})
	if pos != 3 || neg != 3 {
		t.Fatalf("pos=%d neg=%d", pos, neg)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := RandomGraph(rand.New(rand.NewSource(7)), 15, 40)
	b := RandomGraph(rand.New(rand.NewSource(7)), 15, 40)
	if !relation.Equal(a, b) {
		t.Fatal("same seed must give the same graph")
	}
}

// ScaleFree returns a preferential-attachment graph: each new node links
// to k existing nodes chosen proportionally to their degree.
func ScaleFree(rng *rand.Rand, n, k int) *relation.Relation {
	rel := relation.New(2)
	if n < 2 {
		return rel
	}
	targets := []int{0}
	for v := 1; v < n; v++ {
		links := make(map[int]bool)
		for len(links) < k && len(links) < v {
			links[targets[rng.Intn(len(targets))]] = true
		}
		for u := range links {
			rel.Add(value.Tuple{node(v), node(u)}, 1)
			targets = append(targets, u, v)
		}
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

// CycleGraph returns the directed cycle over n nodes.
func CycleGraph(n int) *relation.Relation {
	rel := ChainGraph(n)
	if n > 1 {
		rel.Add(value.Tuple{node(n - 1), node(0)}, 1)
	}
	return rel
}
