package dred

import (
	"slices"
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// op is one maintenance operation's working state, which every stratum it
// walks reads and writes. It points to no engine and is stored nowhere, so
// an Apply keeps it, and its maps, on its stack.
type op struct {
	// cascade holds, per predicate that moved, the Δ image a higher
	// stratum reads, also a derived predicate's visible change: set
	// transitions under set semantics, full count deltas otherwise. A DRed
	// stratum's net is its own image, written as its fixpoints run.
	cascade map[string]*relation.Relation
	// commit holds, per predicate, the exact signed count Δ merged into
	// storage at commit.
	commit map[string]*relation.Relation
	// pendingT holds the ΔT of every aggregate literal read so far, each
	// committed into its group table with the operation.
	pendingT map[eval.RuleLit]*relation.Relation
	// seeds holds a rule edit's seed at its head's stratum: signed
	// derivation counts on a counting stratum, on a DRed one insertions
	// (+1 rows) or deletion candidates (−1 rows).
	seeds map[string]*relation.Relation
	// fresh, under Recompute, is the state the operation evaluated, every
	// predicate it commits included: commit stores a relation whose Δ is
	// not empty as it is, not merged.
	fresh store

	// The working set, which goes with the operation (DESIGN.md §4):
	// newRs caches stored ⊎ net per predicate, lost and gained a lower
	// stratum's sign parts, scratch one DRed output per head arity, and fr
	// the frontiers of step 3's or materialize's fixpoint, fr[turn] folded.
	newRs        map[string]overlaid
	lost, gained map[string]*relation.Relation
	scratch      map[int]*relation.Relation
	fr           [2]frontier
	turn         int
	timing       bool
	start        time.Time
}

// overlaid is one cached stored ⊎ net reader, valid while the net is.
type overlaid struct {
	net *relation.Relation
	rd  relation.Reader
}

// newOp starts an operation; it is inlined, so an Apply's maps stay on
// its stack.
func (e *Engine) newOp() *op {
	return &op{
		cascade: make(map[string]*relation.Relation), commit: make(map[string]*relation.Relation),
		pendingT: make(map[eval.RuleLit]*relation.Relation),
		newRs:    make(map[string]overlaid), lost: make(map[string]*relation.Relation), gained: make(map[string]*relation.Relation),
		scratch: make(map[int]*relation.Relation), fr: [2]frontier{make(frontier), make(frontier)},
	}
}

// begin starts o's clock when anything observes the engine, and the
// stratum records: the engine's, as nothing of o may outlive it.
func (e *Engine) begin(o *op) {
	if o.timing = e.tracer != nil || e.reg != nil; o.timing {
		o.start = time.Now()
	}
	e.strata = make([]StratumTrace, 0, e.strat.MaxStratum)
}

// stratumDone records a stratum's part of the operation, and tells the tracer.
func (e *Engine) stratumDone(st StratumTrace) {
	if e.tracer != nil {
		e.tracer.StratumDone(st.Stratum, st.Wall)
	}
	e.strata = append(e.strata, st)
}

// propagate walks the strata in order, each with its algorithm, over the
// changes o holds, and commits them. A failed stratum leaves storage as it
// was and rolls back the group tables the operation moved.
func (e *Engine) propagate(o *op) (map[string]*relation.Relation, error) {
	byStratum := e.strat.RulesByStratum(e.prog)
	for s := 1; s <= e.strat.MaxStratum; s++ {
		rules := byStratum[s]
		if len(rules) == 0 {
			continue
		}
		var err error
		if e.kinds[s] == rederived {
			err = e.rederive(o, s, rules)
		} else {
			err = e.count(o, s, rules)
		}
		if err != nil {
			for key := range o.pendingT { // nothing is committed: the tables folded so far go back too
				e.gts[key].Rollback()
			}
			return nil, err
		}
	}
	return e.commit(o), nil
}

// newR is stored ⊎ net, one overlay per predicate and net for the
// operation. An empty net is no overlay: one made then would not see the
// rows the net gains later.
func (e *Engine) newR(o *op, pred string) relation.Reader {
	n := o.cascade[pred]
	if n == nil || n.Empty() {
		return e.old(pred)
	}
	if c := o.newRs[pred]; c.net == n {
		return c.rd
	}
	rd := relation.Overlay(e.old(pred), n)
	o.newRs[pred] = overlaid{n, rd}
	return rd
}

// netOf returns pred's net, made empty on first use.
func (e *Engine) netOf(o *op, pred string) *relation.Relation {
	n, ok := o.cascade[pred]
	if !ok {
		n = relation.New(e.db.Ensure(pred, -1).Arity())
		o.cascade[pred] = n
	}
	return n
}

// part returns the tuples that left (neg) or entered pred, its net's sign
// part, built the first time a δ-rule reads it. Only a literal of a higher
// stratum reads one, so the net is final by then.
func (e *Engine) part(o *op, pred string, neg bool) *relation.Relation {
	n := o.cascade[pred]
	if n == nil || n.Empty() {
		return nil
	}
	cache := o.gained
	if neg {
		cache = o.lost
	}
	sp, ok := cache[pred]
	if !ok {
		sp = signPart(n, neg)
		cache[pred] = sp
	}
	return sp
}

// deltaT computes (once per key per operation) the ΔT of an aggregate
// subgoal from the cascade of its grouped relation.
func (e *Engine) deltaT(o *op, key eval.RuleLit, g *datalog.Aggregate) (*relation.Relation, error) {
	if dt, ok := o.pendingT[key]; ok {
		return dt, nil
	}
	gt, err := e.groupTable(key, g)
	if err != nil {
		return nil, err
	}
	nu := o.cascade[g.Inner.Pred]
	if nu == nil || nu.Empty() {
		dt := relation.New(gt.Rel().Arity())
		o.pendingT[key] = dt
		return dt, nil
	}
	dt, err := gt.ApplyDelta(nu, e.instr)
	if err != nil {
		return nil, err
	}
	o.pendingT[key] = dt
	return dt, nil
}

// source resolves a literal that is not a δ-rule's Δ at the old or new
// state.
func (e *Engine) source(o *op, lit datalog.Literal, key eval.RuleLit, useNew bool) (eval.Source, error) {
	switch lit.Kind {
	case datalog.LitPositive, datalog.LitNegated:
		if useNew {
			return eval.Source{Rel: e.newR(o, lit.Atom.Pred)}, nil
		}
		return eval.Source{Rel: e.old(lit.Atom.Pred)}, nil
	case datalog.LitAggregate:
		gt, err := e.groupTable(key, lit.Agg)
		if err != nil {
			return eval.Source{}, err
		}
		if useNew {
			if dt := o.pendingT[key]; dt != nil {
				return eval.Source{Rel: relation.Overlay(gt.Rel(), dt)}, nil
			}
		}
		return eval.Source{Rel: gt.Rel()}, nil
	default:
		return eval.Source{}, nil
	}
}

// scratchOut returns the operation's one output relation of head's arity,
// emptied: step 3's and materialize's evaluations write into it in turn,
// each fold consuming it before the next evaluation starts. It dies with
// the operation (see Relation.Reset), so a big one leaves nothing behind.
// Its lenders are head's stored relation and net, where a head of step 3
// may be. Storage is written at commit, the net between evaluations.
func (e *Engine) scratchOut(o *op, head datalog.Atom) *relation.Relation {
	out := o.scratch[len(head.Args)]
	if out == nil {
		out = relation.New(len(head.Args))
		o.scratch[len(head.Args)] = out
	}
	out.Reset()
	out.BorrowFrom(e.db.Ensure(head.Pred, -1), o.cascade[head.Pred])
	return out
}

// sources returns the engine's source list at length n, empty.
func (e *Engine) sources(n int) []eval.Source {
	if cap(e.srcs) < n {
		e.srcs = make([]eval.Source, n)
	}
	return e.srcs[:n]
}

// evalStep evaluates one δ-rule of step 3 or materialize into the scratch
// output and returns it: literal li (none if < 0) reads img, every other
// literal the new state.
func (e *Engine) evalStep(o *op, ri, li int, img relation.Reader, kind eval.PlanKind) (*relation.Relation, error) {
	rule := e.prog.Rules[ri]
	out := e.scratchOut(o, rule.Head)
	if err := e.evalInto(o, ri, li, img, kind, len(rule.Body), out); err != nil {
		return nil, err
	}
	e.evaluated(rule.Head.Pred, out.Len())
	return out, nil
}

// evaluated counts a δ-rule evaluation of a DRed stratum or materialize
// that produced n tuples of pred, and tells the tracer.
func (e *Engine) evaluated(pred string, n int) {
	e.last.RuleFirings++
	if e.tracer != nil {
		e.tracer.RuleEvaluated(pred, n)
	}
}

// evalInto evaluates rule ri into out over the sources fill gives it, in
// the engine's source list.
func (e *Engine) evalInto(o *op, ri, li int, img relation.Reader, kind eval.PlanKind, newBelow int, out eval.Output) error {
	rule := e.prog.Rules[ri]
	srcs := e.sources(len(rule.Body))
	defer clear(srcs)
	if err := e.fill(o, ri, li, img, newBelow, srcs); err != nil {
		return err
	}
	plan, err := e.planner.PlanFor(eval.PlanKey{Rule: ri, Kind: kind, Delta: li}, rule, srcs)
	if err != nil {
		return err
	}
	return eval.EvalPlan(rule, srcs, plan, out, e.instr)
}

// fill fills srcs with the sources of a δ-rule of rule ri: literal li
// reads img, a literal before newBelow the new state and any later one the
// old state — Definition 4.1's Δli(r) with newBelow = li, DRed's step 1
// with 0, steps 2 and 3 with the body's length.
func (e *Engine) fill(o *op, ri, li int, img relation.Reader, newBelow int, srcs []eval.Source) error {
	for j, lit := range e.prog.Rules[ri].Body {
		if j == li {
			srcs[j] = eval.Source{Rel: img, JoinDelta: lit.Kind == datalog.LitNegated}
			continue
		}
		var err error
		if srcs[j], err = e.source(o, lit, eval.RuleLit{Rule: ri, Lit: j}, j < newBelow); err != nil {
			return err
		}
	}
	return nil
}

// rederive runs DRed's three steps on stratum s. Its net — the −1 rows of
// step 1's overestimate less what step 2 puts back, and step 3's
// insertions — is its cascade, committed as it stands.
func (e *Engine) rederive(o *op, s int, rules []int) error {
	st := StratumTrace{Stratum: s, Algorithm: "dred"}
	var stratumStart time.Time
	if o.timing {
		stratumStart = time.Now()
	}
	inStratum := make(map[string]bool)
	for _, ri := range rules {
		pred := e.prog.Rules[ri].Head.Pred
		if inStratum[pred] = true; e.over[pred] == nil {
			e.over[pred] = new(placeList)
		}
		e.over[pred].stored = e.db.Ensure(pred, -1)
	}
	defer e.unmark(inStratum)
	// ---- Step 1: overestimate deletions. ----
	// δ⁻(p) ⊆ p: step 1 marks the places of the stored rows it
	// overestimates (e.mark) as its walks derive them — every source of
	// step 1 is old state, and deltaT reads lower strata only — and the
	// fixpoint's places become the −1 rows of net[p], which no lower
	// stratum wrote. Step 2's +1 for a rederived tuple cancels its row, so
	// from then on the net holds exactly the true deletions.
	m := &e.mark
	overestimate := func(ri, li int, img relation.Reader) error {
		pred := e.prog.Rules[ri].Head.Pred
		m.add, m.list = true, e.over[pred]
		n := len(m.list.ps)
		err := e.evalInto(o, ri, li, img, eval.PlanDeltaOld, 0, m)
		if err == nil {
			e.evaluated(pred, len(m.list.ps)-n)
		}
		return err
	}
	seed := func(pred string, rows *relation.Relation) {
		m.add, m.list = true, e.over[pred]
		for p := range rows.Len() {
			m.AddDerived(rows.At(p).Tuple, 1)
		}
	}
	if err := e.sweep(o, rules, inStratum, true, overestimate, seed); err != nil {
		return err
	}
	for pred := range inStratum {
		if pl := e.over[pred]; len(pl.ps) > 0 {
			o.cascade[pred] = pl.stored.Gather(pl.ps, -1)
			e.last.Overestimated += len(pl.ps)
		}
	}
	var step2Start time.Time
	if o.timing {
		step2Start = time.Now()
		st.Steps[0] = step2Start.Sub(stratumStart)
	}

	// ---- Step 2: rederive tuples with alternative derivations. ----
	// Semi-naive: a first pass checks every overestimated tuple against the
	// current new state; afterwards, only tuples whose readdition can
	// enable further rederivations (through in-stratum subgoals) drive more
	// rounds — work stays proportional to the overestimate, not rounds ×
	// candidates. The candidates of δ⁺(p) :- δ⁻(p) & … are net[p] itself: a
	// rederived tuple's +1 cancels its −1 row, so later rules and rounds see
	// only what is still unexplained. The walk reads that net, so its output
	// unmarks what it rederives and lists its place after the |O|
	// overestimated ones, and the fold after the walk cancels the rows.
	readd := func(ri, li int, d relation.Reader) error {
		pred := e.prog.Rules[ri].Head.Pred
		cand := o.cascade[pred]
		if cand == nil || cand.Empty() {
			return nil
		}
		m.add, m.list = false, e.over[pred]
		from := len(m.list.ps)
		err := e.rederiveRule(o, ri, li, d, cand, m)
		for rows, i := m.list.stored.Places(m.list.ps[from:]), 0; i < rows.Len() && err == nil; i++ {
			cand.AddRow(rows.At(i)) // at count 1: cancels its −1 row
			e.last.Rederived++
		}
		return err
	}
	// First pass: full candidate check over the new state; then the rounds,
	// in which newly readded tuples re-enable candidates whose derivations
	// pass through them.
	for _, ri := range rules {
		if err := readd(ri, -1, nil); err != nil {
			return err
		}
	}
	if err := e.rounds(o, rules, inStratum, readd); err != nil {
		return err
	}
	var step3Start time.Time
	if o.timing {
		step3Start = time.Now()
		st.Steps[1] = step3Start.Sub(step2Start)
	}

	// ---- Step 3: propagate insertions. ----
	foldAdd := func(pred string, derived *relation.Relation) {
		nr, fr := e.newR(o, pred), o.fr[o.turn].of(pred)
		for p := range derived.Len() {
			if row := derived.At(p); row.Count > 0 && !nr.Has(row.Tuple) {
				e.netOf(o, pred).AddRow(row.WithCount(1))
				fr.Append(derived, p)
				e.last.Inserted++
			}
		}
	}
	insert := func(ri, li int, img relation.Reader) error {
		out, err := e.evalStep(o, ri, li, img, eval.PlanDeltaNew)
		if err == nil {
			foldAdd(e.prog.Rules[ri].Head.Pred, out)
		}
		return err
	}
	if err := e.sweep(o, rules, inStratum, false, insert, foldAdd); err != nil {
		return err
	}
	if o.timing {
		now := time.Now()
		st.Steps[2], st.Wall = now.Sub(step3Start), now.Sub(stratumStart)
	}
	e.stratumDone(st)

	// ---- Finalize the stratum: its net transitions are what it reports
	// and commits. ----
	for pred := range inStratum {
		if n := o.cascade[pred]; n != nil && !n.Empty() {
			o.commit[pred] = n
		} else {
			delete(o.cascade, pred)
		}
	}
	return nil
}

// placer is steps 1 and 2's output. Given a head the state holds, step 1's
// (add) admits it if its place is not yet marked, marking the place; step
// 2's admits it if its place is marked — a candidate the walk rederived —
// and clears the mark, so the walk takes it once. Either appends the place
// to the predicate's list, which the walk does not read.
type placer struct {
	add   bool
	list  *placeList
	heads int // heads given since the engine was made
}

func (m *placer) AddDerived(t value.Tuple, _ int64) relation.Origin {
	m.heads++
	p := m.list.stored.Place(t)
	if p < 0 || m.list.stored.Mark(p, m.add) == m.add {
		return relation.Merged
	}
	m.list.ps = append(m.list.ps, int32(p))
	return relation.Borrowed
}

// placeList is a predicate's places in its DRed stratum: those of stored
// step 1 marked, in admission order, then those step 2 rederived. Steps 1
// and 2's frontier is its window: a round reads (win) the stretch the one
// before appended, up to end, where stored keeps those rows unchanged.
type placeList struct {
	stored *relation.Stored
	ps     []int32
	end    int
	win    relation.Places
}

// unmark clears every mark step 1 set on the stratum's relations, at its
// end or failure, and empties their place lists, each kept while within
// keptCounts rows, and the output.
func (e *Engine) unmark(inStratum map[string]bool) {
	e.mark = placer{heads: e.mark.heads}
	for pred := range inStratum {
		pl := e.over[pred]
		for _, p := range pl.ps {
			pl.stored.Mark(int(p), false)
		}
		ps := pl.ps[:0]
		if cap(ps) > keptCounts {
			ps = nil
		}
		*pl = placeList{ps: ps}
	}
}

// sweep runs step 1 (del: deletions, over the old state) or step 3
// (insertions, over the new state) of a DRed stratum: every δ-rule a lower
// stratum's change drives, then the edit's seed, then the semi-naive
// rounds. step evaluates a δ-rule and admits what it derives into the next
// round, seed admits a seed's rows.
func (e *Engine) sweep(o *op, rules []int, inStratum map[string]bool, del bool, step func(ri, li int, img relation.Reader) error, seed func(string, *relation.Relation)) error {
	for _, ri := range rules {
		for li := range e.prog.Rules[ri].Body {
			img, err := e.image(o, ri, li, inStratum, del)
			if err != nil {
				return err
			}
			if img == nil || img.Empty() {
				continue
			}
			if err := step(ri, li, img); err != nil {
				return err
			}
		}
	}
	for pred, rows := range o.seeds {
		if inStratum[pred] {
			seed(pred, signPart(rows, del))
		}
	}
	return e.rounds(o, rules, inStratum, step)
}

// rounds runs semi-naive rounds from the rows the sweep admitted: in
// each, step evaluates every rule with an in-stratum literal bound to the
// previous round's rows and admits what it derived, until a round lets no
// row through.
func (e *Engine) rounds(o *op, rules []int, inStratum map[string]bool, step func(ri, li int, d relation.Reader) error) error {
	for first := true; e.next(o) || first; first = false {
		e.last.FixpointRounds++
		for _, ri := range rules {
			for li, lit := range e.prog.Rules[ri].Body {
				if lit.Kind != datalog.LitPositive || !inStratum[lit.Atom.Pred] {
					continue
				}
				if d := e.previous(o, lit.Atom.Pred); d != nil {
					if err := step(ri, li, d); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// materialize evaluates the installed program from ∅ into the stored
// relations, which hold its base: maintenance with every old state empty
// and Δ the whole base, where Δ is the new state (Theorem 4.1) and is
// written where it is stored. Each derived relation starts empty. A rule
// that does not read its own stratum is its full join, once, into its
// head — counts summed on a counting stratum, collapsed to 1 on a DRed one;
// a stratum that reads itself then runs step 3's semi-naive rounds from
// what those joins derived. It makes no Δ, version or trace event, and
// counts no work in Stats: it runs on a copy of the engine, without its
// tracer, that shares its stored relations, group tables and planner, and
// returns a record of each stratum with rules.
func (e *Engine) materialize() ([]StratumTrace, error) {
	m := *e
	m.tracer = nil
	o := m.newOp()
	fold := func(pred string, derived *relation.Relation) {
		r, fr := m.db[pred].Relation(), o.fr[o.turn].of(pred)
		for p := range derived.Len() {
			if row := derived.At(p); row.Count > 0 && !r.Has(row.Tuple) {
				r.AddRow(row.WithCount(1))
				fr.Append(derived, p)
			}
		}
	}
	step := func(ri, li int, d relation.Reader) error {
		out, err := m.evalStep(o, ri, li, d, eval.PlanEval)
		if err == nil {
			fold(m.prog.Rules[ri].Head.Pred, out)
		}
		return err
	}
	var strata []StratumTrace
	for s, rules := range m.strat.RulesByStratum(m.prog) {
		if len(rules) == 0 {
			continue
		}
		start := time.Now()
		inStratum := make(map[string]bool)
		for _, ri := range rules {
			head := m.prog.Rules[ri].Head
			inStratum[head.Pred] = true
			m.db[head.Pred] = relation.Store(relation.New(len(head.Args)))
		}
		reads := func(ri int) bool {
			return slices.ContainsFunc(m.prog.Rules[ri].Body, func(lit datalog.Literal) bool {
				return lit.Kind == datalog.LitPositive && inStratum[lit.Atom.Pred]
			})
		}
		loops := slices.ContainsFunc(rules, reads)
		for _, ri := range rules {
			rule := m.prog.Rules[ri]
			switch {
			case reads(ri): // derives nothing until the rounds
			case loops:
				if err := step(ri, -1, nil); err != nil {
					return nil, err
				}
			default:
				out := m.db[rule.Head.Pred].Relation()
				for j, lit := range rule.Body {
					if lit.Kind == datalog.LitAggregate { // a head over T is often T's row
						gt, err := m.groupTable(eval.RuleLit{Rule: ri, Lit: j}, lit.Agg)
						if err != nil {
							return nil, err
						}
						out.BorrowFrom(nil, gt.Rel())
					}
				}
				err := m.evalInto(o, ri, -1, nil, eval.PlanEval, 0, out)
				out.BorrowFrom(nil, nil)
				if err != nil {
					return nil, err
				}
			}
		}
		if loops {
			if err := m.rounds(o, rules, inStratum, step); err != nil {
				return nil, err
			}
		}
		for pred := range inStratum {
			if r := m.db[pred].Relation(); m.kinds[s] == rederived && !loops {
				m.db[pred] = relation.Store(r.ToSet())
			} else {
				r.Trim() // at the layout a loaded state has (Load)
			}
		}
		strata = append(strata, StratumTrace{Stratum: s, Algorithm: "recompute", Wall: time.Since(start)})
	}
	return strata, nil
}

// image returns the image of literal li of rule ri that drives a δ-rule:
// for step 1 (neg, old state) the tuples whose change can invalidate a
// derivation through it, for step 3 (new state) those whose change can
// enable one — the negative or positive sign part of its Δ (delta), as
// the cascade holds set transitions. A positive literal's is part's cached
// one; an in-stratum one's is the fixpoint's.
func (e *Engine) image(o *op, ri, li int, inStratum map[string]bool, neg bool) (*relation.Relation, error) {
	if lit := e.prog.Rules[ri].Body[li]; lit.Kind == datalog.LitPositive {
		if inStratum[lit.Atom.Pred] {
			return nil, nil // driven by the in-stratum fixpoint
		}
		return e.part(o, lit.Atom.Pred, neg), nil
	}
	d, err := e.delta(o, ri, li)
	if d == nil || err != nil {
		return nil, err
	}
	return signPart(d, neg), nil
}

// rederiveRule evaluates rule ri over the new state into out, restricted
// to the deletion candidates cand (the −1 rows of p's net): δ⁺(p) :- δ⁻(p)
// & s1ν & … & snν. li < 0 is the first pass, over every candidate; li >= 0
// a semi-naive round, over the derivations through the newly readded
// tuples d at body position li. The rule's aux rule joins cand as literal
// 0, over the head pattern: pinned in the first pass, a point filter in a
// round, so non-candidate heads are cut early. A head with expressions has
// no aux rule: the rule is evaluated whole, its output intersected with
// cand by the fold.
func (e *Engine) rederiveRule(o *op, ri, li int, d relation.Reader, cand *relation.Relation, out eval.Output) error {
	rule := e.prog.Rules[ri]
	srcs := e.sources(len(rule.Body) + 1)
	defer clear(srcs)
	srcs[0] = eval.Source{Rel: cand}
	if err := e.fill(o, ri, li, d, len(rule.Body), srcs[1:]); err != nil {
		return err
	}
	e.last.RuleFirings++
	if aux := e.aux[ri]; aux.Body != nil {
		plan, err := e.planner.PlanFor(eval.PlanKey{Rule: ri, Kind: eval.PlanRederive, Delta: li + 1}, aux, srcs)
		if err != nil {
			return err
		}
		return eval.EvalPlan(aux, srcs, plan, out, e.instr)
	}
	key := eval.PlanKey{Rule: ri, Kind: eval.PlanDeltaNew, Delta: li}
	if li < 0 {
		key.Kind = eval.PlanEval
	}
	plan, err := e.planner.PlanFor(key, rule, srcs[1:])
	if err != nil {
		return err
	}
	return eval.EvalPlan(rule, srcs[1:], plan, out, e.instr)
}

// next starts a fixpoint round and reports whether the last one admitted
// a row: to a place list of steps 1 and 2, whose window moves on to the
// rows, or to the frontier step 3's folds fill, which then fill the other.
func (e *Engine) next(o *op) (more bool) {
	o.turn ^= 1
	for _, rows := range o.fr[o.turn] {
		rows.Reset()
	}
	for _, rows := range o.fr[o.turn^1] {
		more = more || rows.Len() > 0
	}
	for _, pl := range e.over {
		pl.win = pl.stored.Places(pl.ps[pl.end:])
		more, pl.end = more || pl.end < len(pl.ps), len(pl.ps)
	}
	return more
}

// previous returns pred's rows the last round admitted, nil if none: its
// place list's window or its frontier rows, of which one at most has any.
func (e *Engine) previous(o *op, pred string) relation.Reader {
	if pl := e.over[pred]; pl != nil && pl.win.Len() > 0 {
		return &pl.win
	}
	if rows := o.fr[o.turn^1][pred]; rows != nil && rows.Len() > 0 {
		return rows
	}
	return nil
}

// frontier is the Δ of one round of step 3 or materialize: per predicate,
// the rows its folds let through, by reference to the fold's input.
type frontier map[string]*relation.Refs

// of returns pred's rows, made empty on first use.
func (f frontier) of(pred string) *relation.Refs {
	if f[pred] == nil {
		f[pred] = new(relation.Refs)
	}
	return f[pred]
}
