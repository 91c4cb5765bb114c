package dred

import (
	"time"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/relation"
)

// propagate runs the three DRed steps stratum by stratum.
//
// net holds, per predicate, the signed change known so far (initially:
// the base-relation changes) and is what gets committed. seedDel/seedAdd
// inject deletion candidates / insertions directly at a derived
// predicate's own stratum (used by RemoveRule/AddRule).
func (e *Engine) propagate(net, seedDel, seedAdd map[string]*relation.Relation) (_ map[string]*relation.Relation, err error) {

	timing := e.observing()
	var opStart time.Time
	if timing {
		opStart = time.Now()
	}

	// changes is what the operation reports: per derived predicate that
	// moved, its committed net — the one signed Δ(P) of the paper's §3.
	changes := make(map[string]*relation.Relation)
	pendingT := make(map[eval.RuleLit]*relation.Relation)
	defer func() {
		if err == nil {
			return
		}
		for key := range pendingT { // nothing is committed: the tables folded so far go back too
			e.gts[key].Rollback()
		}
	}()
	byStratum := e.strat.RulesByStratum(e.prog)

	oldR := func(pred string) relation.Reader { return e.db.Ensure(pred, -1) }
	// newR is stored ⊎ net, one overlay per predicate and net for the
	// operation. An empty net is no overlay: one made then would not see
	// the rows the net gains later.
	type overlaid struct {
		net *relation.Relation
		rd  relation.Reader
	}
	newRs := make(map[string]overlaid)
	newR := func(pred string) relation.Reader {
		n := net[pred]
		if n == nil || n.Empty() {
			return oldR(pred)
		}
		if o := newRs[pred]; o.net == n {
			return o.rd
		}
		rd := relation.Overlay(oldR(pred), n)
		newRs[pred] = overlaid{n, rd}
		return rd
	}
	netOf := func(pred string) *relation.Relation {
		n, ok := net[pred]
		if !ok {
			n = relation.New(e.db.Ensure(pred, -1).Arity())
			net[pred] = n
		}
		return n
	}
	// part returns the tuples that left (neg) or entered pred, its net's
	// sign part, built the first time a δ-rule reads it. Only a literal of
	// a higher stratum reads one, so the net is final by then; tc, whose
	// one stratum reads only link, builds none.
	lost, gained := make(map[string]*relation.Relation), make(map[string]*relation.Relation)
	part := func(pred string, neg bool) *relation.Relation {
		n := net[pred]
		if n == nil || n.Empty() {
			return nil
		}
		cache := gained
		if neg {
			cache = lost
		}
		sp, ok := cache[pred]
		if !ok {
			sp = signPart(n, neg)
			cache[pred] = sp
		}
		return sp
	}

	// getGT returns (building over the old state if needed) the group
	// table for an aggregate literal.
	getGT := func(key eval.RuleLit, g *datalog.Aggregate) (*eval.GroupTable, error) {
		gt, ok := e.gts[key]
		if !ok {
			var err error
			gt, err = eval.BuildGroupTable(g, oldR(g.Inner.Pred))
			if err != nil {
				return nil, err
			}
			e.gts[key] = gt
		}
		return gt, nil
	}
	// getDeltaT computes (once per key per operation) the ΔT of an
	// aggregate subgoal from the net change of its grouped relation.
	getDeltaT := func(key eval.RuleLit, g *datalog.Aggregate) (*relation.Relation, error) {
		if dt, ok := pendingT[key]; ok {
			return dt, nil
		}
		gt, err := getGT(key, g)
		if err != nil {
			return nil, err
		}
		nu := net[g.Inner.Pred]
		if nu == nil || nu.Empty() {
			dt := relation.New(gt.Rel().Arity())
			pendingT[key] = dt
			return dt, nil
		}
		dt, err := gt.ApplyDelta(nu, newR(g.Inner.Pred), e.instr)
		if err != nil {
			return nil, err
		}
		pendingT[key] = dt
		return dt, nil
	}

	// source resolves a non-Δ literal at the old or new version.
	source := func(lit datalog.Literal, key eval.RuleLit, useNew bool) (eval.Source, error) {
		switch lit.Kind {
		case datalog.LitPositive, datalog.LitNegated:
			if useNew {
				return eval.Source{Rel: newR(lit.Atom.Pred)}, nil
			}
			return eval.Source{Rel: oldR(lit.Atom.Pred)}, nil
		case datalog.LitAggregate:
			gt, err := getGT(key, lit.Agg)
			if err != nil {
				return eval.Source{}, err
			}
			if useNew {
				if dt := pendingT[key]; dt != nil {
					return eval.Source{Rel: relation.Overlay(gt.Rel(), dt)}, nil
				}
			}
			return eval.Source{Rel: gt.Rel()}, nil
		default:
			return eval.Source{}, nil
		}
	}

	// scratchOut returns the operation's one output relation of head's
	// arity, emptied: evaluations write into it in turn, each fold
	// consuming it before the next evaluation starts. It dies with the
	// operation (see Relation.Reset), so a big one leaves nothing behind.
	// Its lenders are head's stored relation and net: δ⁺(p) ⊆ δ⁻(p) ⊆ p
	// (§7) stores every head of steps 1 and 2, step 3's may be in the net.
	// Storage is written at commit, the net between evaluations.
	scratch := make(map[int]*relation.Relation)
	scratchOut := func(head datalog.Atom) *relation.Relation {
		out := scratch[len(head.Args)]
		if out == nil {
			out = relation.New(len(head.Args))
			scratch[len(head.Args)] = out
		}
		out.Reset()
		out.BorrowFrom(e.db.Ensure(head.Pred, -1), net[head.Pred])
		return out
	}

	// evalStep evaluates one δ-rule — rule ri with literal deltaLit bound
	// to img and every other literal at the old (step 1) or new (steps
	// 2/3) version — returning the derived tuples in the scratch output.
	evalStep := func(ri, deltaLit int, img relation.Reader, useNew bool) (*relation.Relation, error) {
		rule := e.prog.Rules[ri]
		srcs := e.sources(len(rule.Body))
		defer clear(srcs)
		for j, lit := range rule.Body {
			if j == deltaLit {
				srcs[j] = eval.Source{Rel: img, JoinDelta: lit.Kind == datalog.LitNegated}
				continue
			}
			s, err := source(lit, eval.RuleLit{Rule: ri, Lit: j}, useNew)
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
		out := scratchOut(rule.Head)
		if err := eval.EvalPlan(rule, srcs, plan, out, e.instr); err != nil {
			return nil, err
		}
		e.last.RuleFirings++
		if e.tracer != nil {
			e.tracer.RuleEvaluated(rule.Head.Pred, out.Len())
		}
		return out, nil
	}

	// round is the Δ frontier of the running fixpoint (each fold admits a
	// tuple once), empty again whenever a fixpoint ends, and cur the one
	// it reads. Both serve every round and stratum of the operation and go
	// with it: kept across applies they would hold the largest frontier
	// any apply ever had (DESIGN.md §4).
	round, cur := make(frontier), make(frontier)
	for s := 1; s <= e.strat.MaxStratum; s++ {
		rules := byStratum[s]
		if len(rules) == 0 {
			continue
		}
		var stratumStart time.Time
		if timing {
			stratumStart = time.Now()
		}
		inStratum := make(map[string]bool)
		for _, ri := range rules {
			inStratum[e.prog.Rules[ri].Head.Pred] = true
		}
		// ---- Step 1: overestimate deletions. ----
		// δ⁻(p) is the −1 rows of net[p], which no lower stratum wrote: step
		// 1 folds the overestimate into it, and step 2's +1 for a rederived
		// tuple cancels its row, so from then on it holds exactly the true
		// deletions. Every source of step 1 is old state and getDeltaT reads
		// lower strata only, so nothing reads an in-stratum net before the
		// fixpoint ends.
		foldDel := func(pred string, derived *relation.Relation) {
			stored := e.db.Ensure(pred, -1)
			derived.Each(func(row relation.Row) {
				if row.Count > 0 && stored.Has(row.Tuple) && (net[pred] == nil || net[pred].Count(row.Tuple) == 0) {
					netOf(pred).AddRow(row.WithCount(-1))
					round[pred] = append(round[pred], row.WithCount(1))
				}
			})
		}
		for _, ri := range rules {
			rule := e.prog.Rules[ri]
			for li, lit := range rule.Body {
				img, err := e.image(lit, eval.RuleLit{Rule: ri, Lit: li}, inStratum, part, true, getDeltaT, oldR)
				if err != nil {
					return nil, err
				}
				if img == nil || img.Empty() {
					continue
				}
				out, err := evalStep(ri, li, img, false)
				if err != nil {
					return nil, err
				}
				foldDel(rule.Head.Pred, out)
			}
		}
		for pred := range inStratum {
			if sd := seedDel[pred]; sd != nil {
				foldDel(pred, sd)
			}
		}
		for {
			e.last.FixpointRounds++
			cur, round = round, cur.reset()
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
					out, err := evalStep(ri, li, d, false)
					if err != nil {
						return nil, err
					}
					foldDel(rule.Head.Pred, out)
				}
			}
			if round.empty() {
				break
			}
		}
		for pred := range inStratum {
			if n := net[pred]; n != nil {
				e.last.Overestimated += n.Len()
			}
		}
		var step2Start time.Time
		if timing {
			step2Start = time.Now()
			e.mStepSecs[0].Observe(step2Start.Sub(stratumStart))
		}

		// ---- Step 2: rederive tuples with alternative derivations. ----
		// Semi-naive: a first pass checks every overestimated tuple
		// against the current new state; afterwards, only tuples whose
		// readdition can enable further rederivations (through in-stratum
		// subgoals) drive more rounds — work stays proportional to the
		// overestimate, not rounds × candidates.
		// The candidates of δ⁺(p) :- δ⁻(p) & … are net[p] itself: a
		// rederived tuple's +1 cancels its −1 row, so later rules and rounds
		// see only what is still unexplained. A rederivation walk derives a
		// head with the candidate's −1 multiplied into its count, the
		// arithmetic-head path with a positive one: the fold takes either.
		foldReadd := func(pred string, derived *relation.Relation) {
			n := net[pred]
			derived.Each(func(row relation.Row) {
				if n.Count(row.Tuple) < 0 {
					n.AddRow(row.WithCount(1))
					round[pred] = append(round[pred], row.WithCount(1))
					e.last.Rederived++
				}
			})
		}
		candidates := func(p string) bool { return net[p] != nil && !net[p].Empty() }
		// First pass: full candidate check over the new state.
		for _, ri := range rules {
			rule := e.prog.Rules[ri]
			p := rule.Head.Pred
			if !candidates(p) {
				continue
			}
			derived := scratchOut(rule.Head)
			if err := e.rederive(ri, -1, nil, net[p], source, derived); err != nil {
				return nil, err
			}
			foldReadd(p, derived)
		}
		// Delta rounds: newly readded tuples re-enable candidates whose
		// derivations pass through them.
		for {
			e.last.FixpointRounds++
			cur, round = round, cur.reset()
			for _, ri := range rules {
				rule := e.prog.Rules[ri]
				p := rule.Head.Pred
				for li, lit := range rule.Body {
					if lit.Kind != datalog.LitPositive || !inStratum[lit.Atom.Pred] {
						continue
					}
					d := cur[lit.Atom.Pred]
					if len(d) == 0 {
						continue
					}
					if !candidates(p) {
						continue
					}
					derived := scratchOut(rule.Head)
					if err := e.rederive(ri, li, d, net[p], source, derived); err != nil {
						return nil, err
					}
					foldReadd(p, derived)
				}
			}
			if round.empty() {
				break
			}
		}
		var step3Start time.Time
		if timing {
			step3Start = time.Now()
			e.mStepSecs[1].Observe(step3Start.Sub(step2Start))
		}

		// ---- Step 3: propagate insertions. ----
		foldAdd := func(pred string, derived *relation.Relation) {
			nr := newR(pred)
			derived.Each(func(row relation.Row) {
				if row.Count > 0 && !nr.Has(row.Tuple) {
					netOf(pred).AddRow(row.WithCount(1))
					round[pred] = append(round[pred], row.WithCount(1))
					e.last.Inserted++
				}
			})
		}
		for _, ri := range rules {
			rule := e.prog.Rules[ri]
			for li, lit := range rule.Body {
				img, err := e.image(lit, eval.RuleLit{Rule: ri, Lit: li}, inStratum, part, false, getDeltaT, newR)
				if err != nil {
					return nil, err
				}
				if img == nil || img.Empty() {
					continue
				}
				out, err := evalStep(ri, li, img, true)
				if err != nil {
					return nil, err
				}
				foldAdd(rule.Head.Pred, out)
			}
		}
		for pred := range inStratum {
			if sa := seedAdd[pred]; sa != nil {
				foldAdd(pred, sa)
			}
		}
		for {
			e.last.FixpointRounds++
			cur, round = round, cur.reset()
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
					out, err := evalStep(ri, li, d, true)
					if err != nil {
						return nil, err
					}
					foldAdd(rule.Head.Pred, out)
				}
			}
			if round.empty() {
				break
			}
		}
		if timing {
			now := time.Now()
			e.mStepSecs[2].Observe(now.Sub(step3Start))
			if e.tracer != nil {
				e.tracer.StratumDone(s, now.Sub(stratumStart))
			}
		}

		// ---- Finalize the stratum: report its net transitions. ----
		for pred := range inStratum {
			if n := net[pred]; n != nil && !n.Empty() {
				changes[pred] = n
			}
		}
	}

	// Commit everything.
	e.lastNet = make(map[string]*relation.Relation, len(net))
	for pred, n := range net {
		e.db.Ensure(pred, n.Arity()).MergeDelta(n)
		if !n.Empty() {
			e.lastNet[pred] = n
		}
	}
	for key, dt := range pendingT {
		e.gts[key].Commit(dt)
	}
	e.mOps.Inc()
	e.mOverestimated.Add(int64(e.last.Overestimated))
	e.mRederived.Add(int64(e.last.Rederived))
	e.mInserted.Add(int64(e.last.Inserted))
	e.mRuleFirings.Add(int64(e.last.RuleFirings))
	e.mFixpointRounds.Add(int64(e.last.FixpointRounds))
	if timing {
		d := time.Since(opStart)
		e.mApplySeconds.Observe(d)
		if e.tracer != nil {
			e.tracer.BatchDone(d, len(changes))
		}
	}
	return changes, nil
}

// image returns the image of a literal that drives a δ-rule: for step 1
// (neg, rd = oldR) the tuples whose change can invalidate a derivation
// through it, for step 3 (rd = newR) those whose change can enable one.
// part gives a lower stratum's sign parts. A positive literal's image is
// the tuples q lost (step 1) or gained (step 3), a negated one's those q
// changed the other way that rd lacks (q gaining a tuple makes ¬q lose
// it, and the reverse), a GROUPBY's the rows of ΔT's sign.
func (e *Engine) image(lit datalog.Literal, key eval.RuleLit, inStratum map[string]bool,
	part func(string, bool) *relation.Relation, neg bool,
	getDeltaT func(eval.RuleLit, *datalog.Aggregate) (*relation.Relation, error),
	rd func(string) relation.Reader) (*relation.Relation, error) {

	switch lit.Kind {
	case datalog.LitPositive:
		if inStratum[lit.Atom.Pred] {
			return nil, nil // driven by the in-stratum fixpoint
		}
		return part(lit.Atom.Pred, neg), nil
	case datalog.LitNegated:
		a := part(lit.Atom.Pred, !neg)
		if a == nil || a.Empty() {
			return nil, nil
		}
		img := relation.New(a.Arity())
		q := rd(lit.Atom.Pred)
		a.Each(func(row relation.Row) {
			if !q.Has(row.Tuple) {
				img.AddRow(row.WithCount(1))
			}
		})
		return img, nil
	case datalog.LitAggregate:
		dt, err := getDeltaT(key, lit.Agg)
		if err != nil {
			return nil, err
		}
		return signPart(dt, neg), nil
	default:
		return nil, nil
	}
}

// rederive evaluates rule ri over the new state into out, restricted to
// the deletion candidates cand (the −1 rows of p's net): δ⁺(p) :- δ⁻(p) &
// s1ν & … & snν. li < 0 is the first pass, over every candidate; li >= 0 a
// semi-naive round, over the derivations through the newly readded tuples
// d at body position li. The rule's aux rule joins cand as literal 0, over
// the head pattern: pinned in the first pass, a point filter in a round,
// so non-candidate heads are cut early. A head with expressions has no aux
// rule: the rule is evaluated whole, its output intersected with cand by
// the fold.
func (e *Engine) rederive(ri, li int, d relation.Reader, cand *relation.Relation,
	source func(datalog.Literal, eval.RuleLit, bool) (eval.Source, error), out *relation.Relation) error {

	rule := e.prog.Rules[ri]
	srcs := e.sources(len(rule.Body) + 1)
	defer clear(srcs)
	srcs[0] = eval.Source{Rel: cand}
	for j, lit := range rule.Body {
		if j == li {
			srcs[j+1] = eval.Source{Rel: d}
			continue
		}
		s, err := source(lit, eval.RuleLit{Rule: ri, Lit: j}, true)
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

// ruleSources resolves every literal of rule ri against the current
// committed state (used to evaluate a whole rule outside propagate, e.g.
// for AddRule/RemoveRule seeds). Aggregate subgoals get group tables
// built on demand.
func (e *Engine) ruleSources(ri int, net map[string]*relation.Relation, pendingT map[eval.RuleLit]*relation.Relation) ([]eval.Source, error) {
	rule := e.prog.Rules[ri]
	srcs := make([]eval.Source, len(rule.Body))
	for li, lit := range rule.Body {
		switch lit.Kind {
		case datalog.LitPositive, datalog.LitNegated:
			var r relation.Reader = e.db.Ensure(lit.Atom.Pred, -1)
			if n := net[lit.Atom.Pred]; n != nil {
				r = relation.Overlay(r, n)
			}
			srcs[li] = eval.Source{Rel: r}
		case datalog.LitAggregate:
			key := eval.RuleLit{Rule: ri, Lit: li}
			gt, ok := e.gts[key]
			if !ok {
				var err error
				gt, err = eval.BuildGroupTable(lit.Agg, e.db.Ensure(lit.Agg.Inner.Pred, -1))
				if err != nil {
					return nil, err
				}
				e.gts[key] = gt
			}
			var r relation.Reader = gt.Rel()
			if dt := pendingT[key]; dt != nil {
				r = relation.Overlay(r, dt)
			}
			srcs[li] = eval.Source{Rel: r}
		case datalog.LitCondition:
		}
	}
	return srcs, nil
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
func (f frontier) reset() frontier {
	for pred, rows := range f {
		clear(rows)
		f[pred] = rows[:0]
	}
	return f
}
