// Package strata computes the stratification of a Datalog program per
// Definition 3.1 of the paper: build the predicate dependency graph
// ([ABW88]), collapse strongly connected components into a reduced
// dependency graph (RDG), and assign stratum numbers by topological order.
// Base predicates get stratum 0; the rule stratum number RSN(r) is the
// stratum of r's head predicate.
//
// The package also verifies stratified negation and aggregation: whenever
// q depends on p through a negated or aggregate subgoal, SN(p) < SN(q)
// must hold — equivalently, no negative/aggregate edge may stay inside a
// strongly connected component.
package strata

import (
	"fmt"
	"sort"

	"ivm/internal/datalog"
)

// EdgeKind distinguishes positive dependencies from non-monotonic ones.
type EdgeKind uint8

const (
	// EdgePositive is a dependency through a positive subgoal.
	EdgePositive EdgeKind = iota
	// EdgeNegative is a dependency through a negated or aggregate subgoal,
	// both of which are non-monotonic (paper Section 6.2: "Like negation,
	// aggregation subgoals are non-monotonic").
	EdgeNegative
)

// Stratification is the full analysis result for a program.
type Stratification struct {
	// SN maps every predicate (base and derived) to its stratum number.
	// Base predicates have SN 0.
	SN map[string]int
	// RSN[i] is the rule stratum number of program rule i.
	RSN []int
	// MaxStratum is the largest stratum number assigned.
	MaxStratum int
	// Recursive[pred] reports whether pred is in a non-trivial SCC or
	// depends directly on itself.
	Recursive map[string]bool
	// SCC maps each predicate to its component id; predicates share an id
	// iff they are mutually recursive.
	SCC map[string]int
	// Base is the set of base (edb) predicates.
	Base map[string]bool
}

// NotStratifiedError reports a negation/aggregation cycle.
type NotStratifiedError struct {
	From, To string
}

func (e *NotStratifiedError) Error() string {
	return fmt.Sprintf("strata: program is not stratified: %s depends non-monotonically on %s inside a recursive component", e.From, e.To)
}

type edge struct {
	to   string
	kind EdgeKind
}

// Compute analyzes p. It returns an error if p uses negation or
// aggregation through a cycle (not stratified).
func Compute(p *datalog.Program) (*Stratification, error) {
	derived := p.DerivedPreds()
	base := p.BasePreds()

	// Dependency graph: head -> body predicate.
	adj := make(map[string][]edge)
	nodes := make(map[string]bool)
	for pred := range derived {
		nodes[pred] = true
	}
	for pred := range base {
		nodes[pred] = true
	}
	for _, r := range p.Rules {
		for _, l := range r.Body {
			pred := l.Pred()
			if pred == "" {
				continue
			}
			kind := EdgePositive
			if l.Kind == datalog.LitNegated || l.Kind == datalog.LitAggregate {
				kind = EdgeNegative
			}
			adj[r.Head.Pred] = append(adj[r.Head.Pred], edge{to: pred, kind: kind})
		}
	}

	scc := tarjan(nodes, adj)

	// Stratified-negation check: no negative edge inside an SCC.
	for from, edges := range adj {
		for _, e := range edges {
			if e.kind == EdgeNegative && scc[from] == scc[e.to] {
				return nil, &NotStratifiedError{From: from, To: e.to}
			}
		}
	}

	// Recursive predicates: component of size > 1, or a self-loop.
	compSize := make(map[int]int)
	for _, c := range scc {
		compSize[c]++
	}
	recursive := make(map[string]bool)
	for from, edges := range adj {
		for _, e := range edges {
			if e.to == from {
				recursive[from] = true
			}
		}
	}
	for pred, c := range scc {
		if compSize[c] > 1 {
			recursive[pred] = true
		}
	}

	// Stratum numbers: longest-path layering over the reduced dependency
	// graph (Definition 3.1's topological sort), so SN strictly increases
	// along every cross-component edge — e.g. Example 4.2 assigns hop SN 1
	// and tri_hop SN 2 even though the dependency is positive. Base
	// predicates sit at stratum 0.
	sn := computeSN(nodes, adj, scc, derived)

	st := &Stratification{
		SN:        sn,
		RSN:       make([]int, len(p.Rules)),
		Recursive: recursive,
		SCC:       scc,
		Base:      base,
	}
	for i, r := range p.Rules {
		st.RSN[i] = sn[r.Head.Pred]
		if st.RSN[i] > st.MaxStratum {
			st.MaxStratum = st.RSN[i]
		}
	}
	for _, s := range sn {
		if s > st.MaxStratum {
			st.MaxStratum = s
		}
	}
	return st, nil
}

// computeSN assigns stratum numbers via a fixpoint over component longest
// paths. Components are processed in reverse topological order (Tarjan
// emits components in reverse topological order of the condensation, i.e.
// callees before callers when we iterate assignment below).
func computeSN(nodes map[string]bool, adj map[string][]edge, scc map[string]int, derived map[string]bool) map[string]int {
	// Component-level constraint graph. Every cross-component edge forces
	// a strictly higher stratum for the dependent component.
	compEdges := make(map[int][]int)
	comps := make(map[int][]string)
	for n := range nodes {
		comps[scc[n]] = append(comps[scc[n]], n)
	}
	for from, edges := range adj {
		for _, e := range edges {
			cf, ct := scc[from], scc[e.to]
			if cf == ct {
				continue
			}
			compEdges[cf] = append(compEdges[cf], ct)
		}
	}

	// A component containing any derived predicate sits at stratum >= 1.
	memo := make(map[int]int)
	var snOf func(c int) int
	snOf = func(c int) int {
		if s, ok := memo[c]; ok {
			return s
		}
		memo[c] = 0 // cycle guard; condensation is acyclic so unused
		s := 0
		for _, pred := range comps[c] {
			if derived[pred] {
				s = 1
				break
			}
		}
		for _, to := range compEdges[c] {
			if dep := snOf(to) + 1; dep > s {
				s = dep
			}
		}
		memo[c] = s
		return s
	}

	sn := make(map[string]int, len(nodes))
	for n := range nodes {
		sn[n] = snOf(scc[n])
	}
	return sn
}

// tarjan computes strongly connected components over the given nodes and
// adjacency, returning a component id per node. Iterative to be safe on
// deep graphs.
func tarjan(nodes map[string]bool, adj map[string][]edge) map[string]int {
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic component numbering

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	counter := 0
	compID := 0

	type frame struct {
		node string
		ei   int
	}

	for _, root := range names {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{node: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			edges := adj[f.node]
			advanced := false
			for f.ei < len(edges) {
				w := edges[f.ei].to
				f.ei++
				if _, seen := index[w]; !seen {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && low[f.node] > index[w] {
					low[f.node] = index[w]
				}
			}
			if advanced {
				continue
			}
			// Done with f.node.
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[parent] > low[v] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compID
					if w == v {
						break
					}
				}
				compID++
			}
		}
	}
	return comp
}

// RulesByStratum groups rule indexes by RSN, lowest stratum first.
func (s *Stratification) RulesByStratum(p *datalog.Program) [][]int {
	out := make([][]int, s.MaxStratum+1)
	for i := range p.Rules {
		rsn := s.RSN[i]
		out[rsn] = append(out[rsn], i)
	}
	return out
}
