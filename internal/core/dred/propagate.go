package dred

import (
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/relation"
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

	// The working set, which goes with the operation (DESIGN.md §4):
	// newRs caches stored ⊎ net per predicate, lost and gained a lower
	// stratum's sign parts, scratch one DRed output per head arity, and fr
	// the frontiers of DRed's running fixpoint — fr[turn] the one folded.
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

// begin starts o's clock when anything observes the engine.
func (e *Engine) begin(o *op) {
	if o.timing = e.tracer != nil || e.reg != nil; o.timing {
		o.start = time.Now()
	}
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
	dt, err := gt.ApplyDelta(nu, e.newR(o, g.Inner.Pred), e.instr)
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
// emptied: evaluations write into it in turn, each fold consuming it
// before the next evaluation starts. It dies with the operation (see
// Relation.Reset), so a big one leaves nothing behind. Its lenders are
// head's stored relation and net: δ⁺(p) ⊆ δ⁻(p) ⊆ p (§7) stores every head
// of steps 1 and 2, step 3's may be in the net. Storage is written at
// commit, the net between evaluations.
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

// evalStep evaluates one δ-rule — rule ri with literal deltaLit bound to
// img and every other literal at the old (step 1) or new (steps 2/3)
// version — returning the derived tuples in the scratch output.
func (e *Engine) evalStep(o *op, ri, deltaLit int, img relation.Reader, useNew bool) (*relation.Relation, error) {
	rule := e.prog.Rules[ri]
	srcs := e.sources(len(rule.Body))
	defer clear(srcs)
	for j, lit := range rule.Body {
		if j == deltaLit {
			srcs[j] = eval.Source{Rel: img, JoinDelta: lit.Kind == datalog.LitNegated}
			continue
		}
		s, err := e.source(o, lit, eval.RuleLit{Rule: ri, Lit: j}, useNew)
		if err != nil {
			return nil, err
		}
		srcs[j] = s
	}
	kind := eval.PlanDeltaOld
	if useNew {
		kind = eval.PlanDeltaNew
	}
	plan, err := e.planner.PlanFor(eval.PlanKey{Rule: ri, Kind: kind, Delta: deltaLit}, rule, srcs)
	if err != nil {
		return nil, err
	}
	out := e.scratchOut(o, rule.Head)
	if err := eval.EvalPlan(rule, srcs, plan, out, e.instr); err != nil {
		return nil, err
	}
	e.last.RuleFirings++
	if e.tracer != nil {
		e.tracer.RuleEvaluated(rule.Head.Pred, out.Len())
	}
	return out, nil
}

// rederive runs DRed's three steps on stratum s. Its net — the −1 rows of
// step 1's overestimate less what step 2 puts back, and step 3's
// insertions — is its cascade, committed as it stands.
func (e *Engine) rederive(o *op, s int, rules []int) error {
	var stratumStart time.Time
	if o.timing {
		stratumStart = time.Now()
	}
	inStratum := make(map[string]bool)
	for _, ri := range rules {
		inStratum[e.prog.Rules[ri].Head.Pred] = true
	}
	// ---- Step 1: overestimate deletions. ----
	// δ⁻(p) is the −1 rows of net[p], which no lower stratum wrote: step 1
	// folds the overestimate into it, and step 2's +1 for a rederived tuple
	// cancels its row, so from then on it holds exactly the true deletions.
	// Every source of step 1 is old state and deltaT reads lower strata
	// only, so nothing reads an in-stratum net before the fixpoint ends.
	foldDel := func(pred string, derived *relation.Relation) {
		stored, n := e.db.Ensure(pred, -1), o.cascade[pred]
		derived.Each(func(row relation.Row) {
			if row.Count > 0 && stored.Has(row.Tuple) && (n == nil || n.Count(row.Tuple) == 0) {
				n = e.netOf(o, pred)
				n.AddRow(row.WithCount(-1))
				o.fr[o.turn][pred] = append(o.fr[o.turn][pred], row.WithCount(1))
			}
		})
	}
	if err := e.sweep(o, rules, inStratum, true, foldDel); err != nil {
		return err
	}
	for pred := range inStratum {
		if n := o.cascade[pred]; n != nil {
			e.last.Overestimated += n.Len()
		}
	}
	var step2Start time.Time
	if o.timing {
		step2Start = time.Now()
		e.mDRed.stepSecs[0].Observe(step2Start.Sub(stratumStart))
	}

	// ---- Step 2: rederive tuples with alternative derivations. ----
	// Semi-naive: a first pass checks every overestimated tuple against the
	// current new state; afterwards, only tuples whose readdition can
	// enable further rederivations (through in-stratum subgoals) drive more
	// rounds — work stays proportional to the overestimate, not rounds ×
	// candidates. The candidates of δ⁺(p) :- δ⁻(p) & … are net[p] itself: a
	// rederived tuple's +1 cancels its −1 row, so later rules and rounds see
	// only what is still unexplained. A rederivation walk derives a head
	// with the candidate's −1 multiplied into its count, the arithmetic-head
	// path with a positive one: the fold takes either.
	foldReadd := func(pred string, derived *relation.Relation) {
		n := o.cascade[pred]
		derived.Each(func(row relation.Row) {
			if n.Count(row.Tuple) < 0 {
				n.AddRow(row.WithCount(1))
				o.fr[o.turn][pred] = append(o.fr[o.turn][pred], row.WithCount(1))
				e.last.Rederived++
			}
		})
	}
	candidates := func(p string) bool { return o.cascade[p] != nil && !o.cascade[p].Empty() }
	// First pass: full candidate check over the new state.
	for _, ri := range rules {
		rule := e.prog.Rules[ri]
		p := rule.Head.Pred
		if !candidates(p) {
			continue
		}
		derived := e.scratchOut(o, rule.Head)
		if err := e.rederiveRule(o, ri, -1, nil, o.cascade[p], derived); err != nil {
			return err
		}
		foldReadd(p, derived)
	}
	// Delta rounds: newly readded tuples re-enable candidates whose
	// derivations pass through them.
	for {
		e.last.FixpointRounds++
		cur := o.next()
		for _, ri := range rules {
			rule := e.prog.Rules[ri]
			p := rule.Head.Pred
			for li, lit := range rule.Body {
				if lit.Kind != datalog.LitPositive || !inStratum[lit.Atom.Pred] {
					continue
				}
				d := cur[lit.Atom.Pred]
				if len(d) == 0 || !candidates(p) {
					continue
				}
				derived := e.scratchOut(o, rule.Head)
				if err := e.rederiveRule(o, ri, li, d, o.cascade[p], derived); err != nil {
					return err
				}
				foldReadd(p, derived)
			}
		}
		if o.fr[o.turn].empty() {
			break
		}
	}
	var step3Start time.Time
	if o.timing {
		step3Start = time.Now()
		e.mDRed.stepSecs[1].Observe(step3Start.Sub(step2Start))
	}

	// ---- Step 3: propagate insertions. ----
	foldAdd := func(pred string, derived *relation.Relation) {
		nr := e.newR(o, pred)
		derived.Each(func(row relation.Row) {
			if row.Count > 0 && !nr.Has(row.Tuple) {
				e.netOf(o, pred).AddRow(row.WithCount(1))
				o.fr[o.turn][pred] = append(o.fr[o.turn][pred], row.WithCount(1))
				e.last.Inserted++
			}
		})
	}
	if err := e.sweep(o, rules, inStratum, false, foldAdd); err != nil {
		return err
	}
	if o.timing {
		now := time.Now()
		e.mDRed.stepSecs[2].Observe(now.Sub(step3Start))
		if e.tracer != nil {
			e.tracer.StratumDone(s, now.Sub(stratumStart))
		}
	}

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

// sweep runs step 1 (del: deletions, over the old state) or step 3
// (insertions, over the new state) of a DRed stratum: every δ-rule a lower
// stratum's change drives, then the edit's seed, then semi-naive rounds in
// which each in-stratum literal takes the previous round's rows; fold
// admits what each evaluation derives into the next round.
func (e *Engine) sweep(o *op, rules []int, inStratum map[string]bool, del bool, fold func(string, *relation.Relation)) error {
	for _, ri := range rules {
		rule := e.prog.Rules[ri]
		for li, lit := range rule.Body {
			img, err := e.image(o, lit, eval.RuleLit{Rule: ri, Lit: li}, inStratum, del)
			if err != nil {
				return err
			}
			if img == nil || img.Empty() {
				continue
			}
			out, err := e.evalStep(o, ri, li, img, !del)
			if err != nil {
				return err
			}
			fold(rule.Head.Pred, out)
		}
	}
	for pred, seed := range o.seeds {
		if inStratum[pred] {
			fold(pred, signPart(seed, del))
		}
	}
	for {
		e.last.FixpointRounds++
		cur := o.next()
		for _, ri := range rules {
			rule := e.prog.Rules[ri]
			for li, lit := range rule.Body {
				if lit.Kind != datalog.LitPositive || !inStratum[lit.Atom.Pred] {
					continue
				}
				d := cur[lit.Atom.Pred]
				if len(d) == 0 {
					continue
				}
				out, err := e.evalStep(o, ri, li, d, !del)
				if err != nil {
					return err
				}
				fold(rule.Head.Pred, out)
			}
		}
		if o.fr[o.turn].empty() {
			return nil
		}
	}
}

// image returns the image of a literal that drives a δ-rule: for step 1
// (neg, old state) the tuples whose change can invalidate a derivation
// through it, for step 3 (new state) those whose change can enable one. A
// positive literal's image is the tuples q lost (step 1) or gained (step
// 3), a negated one's those q changed the other way that q's state lacks
// (q gaining a tuple makes ¬q lose it, and the reverse), a GROUPBY's the
// rows of ΔT's sign.
func (e *Engine) image(o *op, lit datalog.Literal, key eval.RuleLit, inStratum map[string]bool, neg bool) (*relation.Relation, error) {
	switch lit.Kind {
	case datalog.LitPositive:
		if inStratum[lit.Atom.Pred] {
			return nil, nil // driven by the in-stratum fixpoint
		}
		return e.part(o, lit.Atom.Pred, neg), nil
	case datalog.LitNegated:
		a := e.part(o, lit.Atom.Pred, !neg)
		if a == nil || a.Empty() {
			return nil, nil
		}
		img := relation.New(a.Arity())
		q := e.old(lit.Atom.Pred)
		if !neg {
			q = e.newR(o, lit.Atom.Pred)
		}
		a.Each(func(row relation.Row) {
			if !q.Has(row.Tuple) {
				img.AddRow(row.WithCount(1))
			}
		})
		return img, nil
	case datalog.LitAggregate:
		dt, err := e.deltaT(o, key, lit.Agg)
		if err != nil {
			return nil, err
		}
		return signPart(dt, neg), nil
	default:
		return nil, nil
	}
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
func (e *Engine) rederiveRule(o *op, ri, li int, d relation.Reader, cand *relation.Relation, out *relation.Relation) error {
	rule := e.prog.Rules[ri]
	srcs := e.sources(len(rule.Body) + 1)
	defer clear(srcs)
	srcs[0] = eval.Source{Rel: cand}
	for j, lit := range rule.Body {
		if j == li {
			srcs[j+1] = eval.Source{Rel: d}
			continue
		}
		s, err := e.source(o, lit, eval.RuleLit{Rule: ri, Lit: j}, true)
		if err != nil {
			return err
		}
		srcs[j+1] = s
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

// next starts a fixpoint round: it returns the frontier the last round
// folded and folds into the other, emptied.
func (o *op) next() frontier {
	o.turn ^= 1
	o.fr[o.turn].reset()
	return o.fr[o.turn^1]
}

// frontier is the Δ of one fixpoint round: per predicate, the rows the
// round's folds let through.
type frontier map[string]relation.RowSlice

// empty reports whether the round let no row through.
func (f frontier) empty() bool {
	for _, rows := range f {
		if len(rows) > 0 {
			return false
		}
	}
	return true
}

// reset empties f for the next round, keeping each predicate's array
// and clearing the rows out of it.
func (f frontier) reset() {
	for pred, rows := range f {
		clear(rows)
		f[pred] = rows[:0]
	}
}
