package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"ivm"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// edge is one link(a,b) base fact.
type edge struct{ a, b string }

// opKind splits an op stream by what its applies do, so workloads that
// alternate kinds can report them apart.
type opKind uint8

const (
	opMixed opKind = iota // deletes and inserts in one batch
	opDelete
	opInsert
)

// op is one apply of a workload's stream, in the two forms the layer
// ladder needs: the signed delta relation (engine and Views.Apply rungs)
// and the delta script (ApplyScript, HTTP and replication rungs).
type op struct {
	id     int
	kind   opKind
	delta  *relation.Relation
	script string
}

func (o *op) deltas() map[string]*relation.Relation {
	return map[string]*relation.Relation{"link": o.delta}
}

// makeOp renders the deleted and inserted edges of one apply.
func makeOp(id int, kind opKind, del, ins []edge) op {
	d := relation.New(2)
	var sb strings.Builder
	for _, e := range del {
		d.Add(ivm.T(e.a, e.b), -1)
		fmt.Fprintf(&sb, "-link(%s,%s).\n", e.a, e.b)
	}
	for _, e := range ins {
		d.Add(ivm.T(e.a, e.b), 1)
		fmt.Fprintf(&sb, "+link(%s,%s).\n", e.a, e.b)
	}
	return op{id: id, kind: kind, delta: d, script: sb.String()}
}

// generator is a seeded, endless op stream. It keeps its own model of
// the stored link relation: deletes are drawn from it (so no op can
// fail), and the oracle recomputes the views from it, independently of
// the program under test.
type generator interface {
	next() op
	links() []edge
}

// edgeSet is the generator's model of the stored link relation, with
// O(1) uniform sampling and removal.
type edgeSet struct {
	list []edge
	pos  map[edge]int
}

func newEdgeSet(rel *relation.Relation) *edgeSet {
	s := &edgeSet{pos: make(map[edge]int, rel.Len())}
	// SortedRows, not map order: the same seed must give the same stream.
	for _, row := range rel.SortedRows() {
		s.add(edge{row.Tuple[0].Str(), row.Tuple[1].Str()})
	}
	return s
}

func (s *edgeSet) has(e edge) bool { _, ok := s.pos[e]; return ok }

func (s *edgeSet) add(e edge) {
	s.pos[e] = len(s.list)
	s.list = append(s.list, e)
}

func (s *edgeSet) remove(e edge) {
	i := s.pos[e]
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.pos[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, e)
}

// take removes and returns k distinct edges drawn uniformly.
func (s *edgeSet) take(rng *rand.Rand, k int) []edge {
	out := make([]edge, 0, k)
	for len(out) < k && len(s.list) > 0 {
		e := s.list[rng.Intn(len(s.list))]
		s.remove(e)
		out = append(out, e)
	}
	return out
}

func (s *edgeSet) links() []edge { return append([]edge(nil), s.list...) }

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }

// slidingGen emits mixed batches over a random graph: each op deletes
// `half` stored links and inserts `half` fresh ones, so the relation's
// size — and with it the cost of an apply — is stationary.
type slidingGen struct {
	rng   *rand.Rand
	nodes int
	half  int
	set   *edgeSet
	n     int
}

func newSlidingGen(seed int64, nodes, edges, half int) *slidingGen {
	rng := rand.New(rand.NewSource(seed))
	return &slidingGen{rng: rng, nodes: nodes, half: half, set: newEdgeSet(workload.RandomGraph(rng, nodes, edges))}
}

func (g *slidingGen) next() op {
	del := g.set.take(g.rng, g.half)
	gone := make(map[edge]bool, len(del))
	for _, e := range del {
		gone[e] = true
	}
	var ins []edge
	for len(ins) < g.half {
		a, b := g.rng.Intn(g.nodes), g.rng.Intn(g.nodes)
		e := edge{nodeName(a), nodeName(b)}
		// A link deleted and re-inserted in one batch would cancel to an
		// empty net change and shrink |Δ|.
		if a == b || g.set.has(e) || gone[e] {
			continue
		}
		g.set.add(e)
		ins = append(ins, e)
	}
	o := makeOp(g.n, opMixed, del, ins)
	g.n++
	return o
}

func (g *slidingGen) links() []edge { return g.set.links() }

// flipGen alternates a delete-apply of k stored links with an
// insert-apply that puts the same k back, so the two kinds of DRed
// maintenance are measured on the same tuples and the graph never
// drifts.
type flipGen struct {
	rng  *rand.Rand
	k    int
	set  *edgeSet
	held []edge
	n    int
}

// newFlipGen builds a layered DAG plus skip-layer cross edges: every
// pair has alternative derivations (DRed's rederivation step has work
// to do) and there is no cycle, so no single apply touches a giant
// strongly connected component.
func newFlipGen(seed int64, layers, width, fanout, cross, k int) *flipGen {
	rng := rand.New(rand.NewSource(seed))
	rel := workload.LayeredDAG(rng, layers, width, fanout)
	for added := 0; added < cross; {
		l := rng.Intn(layers - 2)
		t := ivm.T(nodeName(l*width+rng.Intn(width)), nodeName((l+2)*width+rng.Intn(width)))
		if !rel.Has(t) {
			rel.Add(t, 1)
			added++
		}
	}
	return &flipGen{rng: rng, k: k, set: newEdgeSet(rel)}
}

func (g *flipGen) next() op {
	var o op
	if g.held == nil {
		g.held = g.set.take(g.rng, g.k)
		o = makeOp(g.n, opDelete, g.held, nil)
	} else {
		for _, e := range g.held {
			g.set.add(e)
		}
		o = makeOp(g.n, opInsert, nil, g.held)
		g.held = nil
	}
	g.n++
	return o
}

func (g *flipGen) links() []edge { return g.set.links() }

// pairGen inserts a two-link path through a midpoint no other op uses,
// then deletes it again: every apply changes exactly one hop tuple, and
// nothing it touches is reachable from the base graph, so concurrent
// reads of base nodes have fixed answers.
type pairGen struct {
	set  *edgeSet
	held []edge
	n    int
}

func newPairGen(seed int64, nodes, edges int) *pairGen {
	rng := rand.New(rand.NewSource(seed))
	return &pairGen{set: newEdgeSet(workload.RandomGraph(rng, nodes, edges))}
}

func (g *pairGen) next() op {
	var o op
	if g.held == nil {
		i := g.n / 2
		g.held = []edge{{fmt.Sprintf("s%d", i), fmt.Sprintf("m%d", i)}, {fmt.Sprintf("m%d", i), fmt.Sprintf("d%d", i)}}
		for _, e := range g.held {
			g.set.add(e)
		}
		o = makeOp(g.n, opInsert, nil, g.held)
	} else {
		for _, e := range g.held {
			g.set.remove(e)
		}
		o = makeOp(g.n, opDelete, g.held, nil)
		g.held = nil
	}
	g.n++
	return o
}

func (g *pairGen) links() []edge { return g.set.links() }

// streamSHA256 fingerprints the stream a run consumes: its base facts
// and its first n scripts. g must be freshly built.
func streamSHA256(g generator, n int) string {
	h := sha256.New()
	for _, e := range g.links() {
		fmt.Fprintf(h, "link(%s,%s).\n", e.a, e.b)
	}
	for i := 0; i < n; i++ {
		o := g.next()
		fmt.Fprintf(h, "#%d\n%s", o.id, o.script)
	}
	return hex.EncodeToString(h.Sum(nil))
}
