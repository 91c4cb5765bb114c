package eval

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ivm/internal/datalog"
	"ivm/internal/metrics"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// Cost-based join planning: every rule evaluation follows a Plan.
//
// PlanRule orders the body by estimated join fan-out, using the
// per-column distinct statistics relations maintain
// (relation.CardEstimator), and freezes the per-literal access path
// (point / index / scan / filter) into the plan so execution does no
// per-call classification. The Δ-subgoal stays pinned first (paper
// Section 6.1) and filters run as soon as their variables are bound. The
// head relation merges counts commutatively, so every safe order derives
// the same multiset: only cost depends on the order.
//
// Planner caches plans per (rule, kind, Δ-position); steady-state
// maintenance hits the cache and pays no planning cost. Plans carry a
// coarse log₂-size fingerprint of their non-Δ join sources and are
// replanned when any source drifts past 4× — the Δ source is excluded
// because its size varies batch to batch by design, and so is a
// rederivation's candidate set, which is a point filter when not pinned.

// AccessKind is the access path chosen for one plan step.
type AccessKind uint8

const (
	// AccessFilter evaluates a condition literal over bound variables.
	AccessFilter AccessKind = iota
	// AccessNegFilter checks a negated literal's absence (Has probe).
	AccessNegFilter
	// AccessPointFilter checks a bound literal's presence with a point
	// lookup, as soon as its variables are bound: a rederivation's
	// candidate set, which the planner neither sizes nor fingerprints.
	AccessPointFilter
	// AccessPoint is a full-tuple point lookup (all columns bound).
	AccessPoint
	// AccessIndex is a hash-index lookup on Cols.
	AccessIndex
	// AccessScan enumerates the whole relation.
	AccessScan
)

// join reports whether the step enumerates rows of a relation (point,
// index or scan) rather than filtering the current binding.
func (k AccessKind) join() bool { return k >= AccessPoint }

func (k AccessKind) String() string {
	switch k {
	case AccessFilter:
		return "filter"
	case AccessNegFilter:
		return "!filter"
	case AccessPointFilter:
		return "point filter"
	case AccessPoint:
		return "point"
	case AccessIndex:
		return "index"
	case AccessScan:
		return "scan"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// PlanStep evaluates body literal Lit with the given access path.
type PlanStep struct {
	Lit  int
	Kind AccessKind
	// Cols are the columns probed on an AccessIndex step (ascending).
	// They are a subset of the step's bound columns when an existing
	// index is reused; the residual columns are checked by the step's ops.
	Cols []int

	// The step's slot program. A join step has one op per column of its
	// pattern. args grounds what the step probes with: a point step's
	// pattern, an index step's key (one term per probed column), a negated
	// literal's atom, or a condition's two sides, which cmp compares.
	ops  []colOp
	args []term
	cmp  datalog.CmpOp
}

// Plan is a frozen evaluation order with per-step access paths for one
// rule shape, compiled into a slot program (slots.go). Plans are immutable
// once built; only the walk scratch they lend to evaluations changes.
type Plan struct {
	Steps []PlanStep
	// pinned is the Δ-literal forced first (-1 when none).
	pinned int
	// fp is the log₂(Len+1) fingerprint per body literal recorded at
	// plan time; -1 marks literals not tracked (filters, the Δ literal).
	fp []int8
	// head grounds the rule's head from the slots, of which there are
	// nslots.
	head   []term
	nslots int
	// stop is, in a rederivation plan, the step that binds the head's last
	// variable: below one of its rows every derivation derives the same
	// head, and a walk needs only the first (-1 in other plans).
	stop int
	// scratch is the walk state the last evaluation released, taken by
	// the next one; nil while an evaluation holds it, so a concurrent
	// evaluation of the plan builds its own.
	scratch atomic.Pointer[ruleWalk]
}

// driftThreshold is the log₂ distance at which a cached plan is
// considered stale: a source growing or shrinking ~4× can change the
// best order.
const driftThreshold = 2

func sizeClass(n int) int8 { return int8(bits.Len(uint(n))) }

// drifted reports whether any tracked source moved a factor ≥ 2^driftThreshold
// away from its size at plan time.
func (p *Plan) drifted(srcs []Source) bool {
	for i, f := range p.fp {
		if f < 0 || srcs[i].Rel == nil {
			continue
		}
		d := sizeClass(srcs[i].Rel.Len()) - f
		if d >= driftThreshold || d <= -driftThreshold {
			return true
		}
	}
	return false
}

// PlanRule builds a cost-based plan for one rule. firstLit, when >= 0
// and join-capable, is pinned first (the Δ-subgoal of a delta rule).
// Remaining join literals are taken in order of estimated fan-out
// (Len / ∏ distinct(boundCol), ties toward the original literal order);
// filters run as soon as their variables are bound. Each step is compiled
// as it is taken, the head last. PlanRule fails on a rule with filters
// whose variables no remaining join can bind.
func PlanRule(rule datalog.Rule, srcs []Source, firstLit int) (*Plan, error) {
	return planRule(rule, srcs, firstLit, false)
}

// planRule is PlanRule, for a rederivation rule (PlanRederive) when
// rederive is set: its literal 0, the head's candidate set, is either
// pinned or a point filter.
func planRule(rule datalog.Rule, srcs []Source, firstLit int, rederive bool) (*Plan, error) {
	n := len(rule.Body)
	if len(srcs) != n {
		return nil, fmt.Errorf("eval: rule has %d literals but %d sources given", n, len(srcs))
	}
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	slots := make(slotOf)
	p := &Plan{Steps: make([]PlanStep, 0, n), pinned: -1, fp: make([]int8, n), stop: -1}
	ends := make([]int, 0, n) // per step, the number of variables bound after it
	for i := range p.fp {
		p.fp[i] = -1
	}

	headFilter := rederive && firstLit != 0
	isFilter := func(i int) bool {
		l := rule.Body[i]
		return l.Kind == datalog.LitCondition || (l.Kind == datalog.LitNegated && !srcs[i].JoinDelta) || (headFilter && i == 0)
	}
	ready := func(i int) bool {
		for _, v := range rule.Body[i].UsesVars(nil) {
			if _, ok := slots[v]; !ok {
				return false
			}
		}
		return true
	}
	var err error
	take := func(i int) {
		remaining[i] = false
		st, serr := accessPath(rule, srcs, i, slots, headFilter && i == 0)
		if err == nil {
			err = serr
		}
		p.Steps = append(p.Steps, st)
		ends = append(ends, len(slots))
	}
	flushFilters := func() {
		for i := 0; i < n; i++ {
			if remaining[i] && isFilter(i) && ready(i) {
				take(i)
			}
		}
	}

	if firstLit >= 0 && firstLit < n && !isFilter(firstLit) {
		p.pinned = firstLit
		take(firstLit)
	}
	flushFilters()

	for {
		done := true
		for i := 0; i < n; i++ {
			if remaining[i] {
				done = false
				break
			}
		}
		if done {
			break
		}
		best, bestCost := -1, 0.0
		for i := 0; i < n; i++ {
			if !remaining[i] || isFilter(i) {
				continue
			}
			bc, _ := boundColumns(joinArgs(rule.Body[i]), slots)
			if c := fanoutEstimate(srcs[i].Rel, bc); best < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("eval: rule %q has filters with unbound variables and no remaining joins", rule.String())
		}
		take(best)
		flushFilters()
	}
	if err == nil {
		err = p.compileHead(rule, slots)
	}
	if err != nil {
		return nil, err
	}
	if rederive {
		last := -1
		for _, v := range rule.Head.Vars(nil) {
			last = max(last, slots[v])
		}
		p.stop = slices.IndexFunc(ends, func(end int) bool { return last < end })
	}

	// Fingerprint the non-Δ join sources for drift detection.
	for _, st := range p.Steps {
		if st.Lit == p.pinned || !st.Kind.join() {
			continue
		}
		if rel := srcs[st.Lit].Rel; rel != nil {
			p.fp[st.Lit] = sizeClass(rel.Len())
		}
	}
	return p, nil
}

// compileHead ends p's slot program: the head, grounded from the slots
// the steps bind.
func (p *Plan) compileHead(rule datalog.Rule, slots slotOf) error {
	head, err := compileTerms(rule.Head.Args, slots)
	p.head, p.nslots = head, len(slots)
	return err
}

// boundColumns classifies a join pattern's columns under the variables
// slots binds: the columns holding a constant or a bound variable, and
// whether that is all of them. This is exactly what a walk finds at
// runtime, because at step k a variable is bound iff an earlier join
// step's literal mentioned it.
func boundColumns(args []datalog.Term, slots slotOf) (cols []int, all bool) {
	all = true
	for ci, a := range args {
		switch x := a.(type) {
		case datalog.Const:
			cols = append(cols, ci)
		case datalog.Var:
			if _, ok := slots[string(x)]; ok {
				cols = append(cols, ci)
			} else {
				all = false
			}
		default:
			all = false
		}
	}
	return cols, all
}

// accessPath freezes the access path of body literal i under the
// variables slots binds and compiles the step; a join literal binds a
// slot for each variable it is the first to mention. An index step
// probes an existing index on a subset of its bound columns rather than
// have the relation build a new one. pointFilter takes the literal, its
// variables all bound, as an AccessPointFilter.
func accessPath(rule datalog.Rule, srcs []Source, i int, slots slotOf, pointFilter bool) (PlanStep, error) {
	lit := rule.Body[i]
	step := PlanStep{Lit: i}
	var err error
	switch {
	case pointFilter:
		step.Kind = AccessPointFilter
		step.args, err = compileTerms(lit.Atom.Args, slots)
	case lit.Kind == datalog.LitCondition:
		step.Kind, step.cmp = AccessFilter, lit.Cond.Op
		step.args, err = compileTerms([]datalog.Term{lit.Cond.Left, lit.Cond.Right}, slots)
	case lit.Kind == datalog.LitNegated && !srcs[i].JoinDelta:
		step.Kind = AccessNegFilter
		step.args, err = compileTerms(lit.Atom.Args, slots)
	default:
		args := joinArgs(lit)
		cols, all := boundColumns(args, slots)
		switch {
		case all && len(args) > 0:
			step.Kind = AccessPoint
			step.args, err = compileTerms(args, slots)
		case len(cols) > 0:
			step.Kind = AccessIndex
			if reuse := relation.PreferredIndexFor(srcs[i].Rel, cols); reuse != nil {
				cols = reuse
			}
			step.Cols = cols
			key := make([]datalog.Term, len(cols))
			for j, c := range cols {
				key[j] = args[c]
			}
			step.args, err = compileTerms(key, slots)
		default:
			step.Kind = AccessScan
		}
		if err == nil {
			step.ops, err = compilePattern(args, slots)
		}
	}
	return step, err
}

// fanoutEstimate is the expected number of rows a join step emits per
// incoming binding: Len divided by the distinct count of every bound
// column. Unbound scans cost the full Len; a well-keyed probe costs ≤ 1.
func fanoutEstimate(rel relation.Reader, boundCols []int) float64 {
	if rel == nil {
		return 0
	}
	f := float64(rel.Len())
	for _, c := range boundCols {
		if d := relation.DistinctEstimate(rel, c); d > 1 {
			f /= float64(d)
		}
	}
	return f
}

// Describe renders the plan deterministically, one step per " -> "
// segment: the access path, the literal, and for index steps the probed
// columns. The Δ-pinned step is marked with a leading Δ.
func (p *Plan) Describe(rule datalog.Rule) string {
	var sb strings.Builder
	for i, st := range p.Steps {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		if st.Lit == p.pinned && p.pinned >= 0 {
			sb.WriteString("Δ:")
		}
		sb.WriteString(st.Kind.String())
		sb.WriteByte(' ')
		sb.WriteString(rule.Body[st.Lit].String())
		if st.Kind == AccessIndex {
			sb.WriteString(" [cols ")
			for j, c := range st.Cols {
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.Itoa(c))
			}
			sb.WriteByte(']')
		}
	}
	return sb.String()
}

// PlanKind distinguishes the evaluation contexts a rule is planned for:
// the same rule body joins against different source shapes in each.
type PlanKind uint8

const (
	// PlanEval is full (re-)evaluation: seed rounds, recomputation,
	// initial materialization. Delta holds the restricted literal of a
	// semi-naive round, or -1.
	PlanEval PlanKind = iota
	// PlanDeltaOld is a delta rule joined against the pre-update state
	// (DRed's deletion step). Delta is the Δ-position.
	PlanDeltaOld
	// PlanDeltaNew is a delta rule joined against the post-update state
	// (counting maintenance, DRed's insertion step). Delta is the
	// Δ-position.
	PlanDeltaNew
	// PlanRederive is a DRed rederivation aux rule (the head-candidate
	// literal prepended to the body). Delta is the pinned literal; when it
	// is not 0, the candidate literal is a point filter.
	PlanRederive
)

// PlanKey identifies one cached plan. Semantics is implicit: each engine
// owns its Planner, and an engine evaluates under one semantics.
type PlanKey struct {
	Rule int
	Kind PlanKind
	// Delta is the body literal the plan pins first, or -1.
	Delta int
}

// Planner caches plans per PlanKey. All methods are safe for concurrent
// use.
type Planner struct {
	mu    sync.RWMutex
	plans map[PlanKey]*Plan

	plansGauge *metrics.Gauge
	hits       *metrics.Counter
	misses     *metrics.Counter
	replans    *metrics.Counter
}

// NewPlanner returns an empty plan cache. reg may be nil (metrics off).
func NewPlanner(reg *metrics.Registry) *Planner {
	p := &Planner{plans: make(map[PlanKey]*Plan)}
	if reg != nil {
		p.plansGauge = reg.Gauge("planner_plans")
		p.hits = reg.Counter("planner_hits_total")
		p.misses = reg.Counter("planner_misses_total")
		p.replans = reg.Counter("planner_replans_total")
	}
	return p
}

// PlanFor returns the cached plan for key, building (and caching) one
// with key.Delta pinned first when absent or drifted.
func (p *Planner) PlanFor(key PlanKey, rule datalog.Rule, srcs []Source) (*Plan, error) {
	p.mu.RLock()
	pl := p.plans[key]
	p.mu.RUnlock()
	if pl != nil && !pl.drifted(srcs) {
		p.hits.Inc()
		return pl, nil
	}
	npl, err := planRule(rule, srcs, key.Delta, key.Kind == PlanRederive)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.plans[key] = npl
	size := len(p.plans)
	p.mu.Unlock()
	if pl != nil {
		p.replans.Inc()
	} else {
		p.misses.Inc()
	}
	p.plansGauge.Set(int64(size))
	return npl, nil
}

// Reset drops every cached plan. Rule edits must call it: rule indices
// shift, so stale keys would serve plans for the wrong rule.
func (p *Planner) Reset() {
	p.mu.Lock()
	p.plans = make(map[PlanKey]*Plan)
	p.mu.Unlock()
	p.plansGauge.Set(0)
}

// Len returns the number of cached plans.
func (p *Planner) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.plans)
}

// EvalRule evaluates one rule with the given per-literal sources and adds
// every derived head tuple (with its derivation count — the product of
// the joined tuples' counts, summed over derivations) into out, following
// a fresh PlanRule plan. firstLit, when >= 0, is the literal pinned first:
// delta rules put the Δ-subgoal first because it is usually the most
// restrictive (paper Section 6.1). Join probes, scans and built or
// borrowed heads are counted into in, which may be nil.
func EvalRule(rule datalog.Rule, srcs []Source, firstLit int, out *relation.Relation, in *Instruments) error {
	plan, err := PlanRule(rule, srcs, firstLit)
	if err != nil {
		return err
	}
	return EvalPlan(rule, srcs, plan, out, in)
}

// Output takes the heads a walk derives, each with its derivation's count,
// and says where it found the head's row. A *relation.Relation is one.
type Output interface {
	AddDerived(t value.Tuple, count int64) relation.Origin
}

// EvalPlan is EvalRule following an already built (typically cached)
// plan for the same rule shape, into any Output.
func EvalPlan(rule datalog.Rule, srcs []Source, plan *Plan, out Output, in *Instruments) error {
	if len(srcs) != len(rule.Body) {
		return fmt.Errorf("eval: rule has %d literals but %d sources given", len(rule.Body), len(srcs))
	}
	w := plan.takeWalk()
	w.srcs, w.out = srcs, out
	err := w.walk(0, 1)
	if in != nil {
		in.JoinProbes.Add(w.ctr.probes)
		in.JoinScans.Add(w.ctr.scans)
		in.HeadsBuilt.Add(w.ctr.heads[relation.Built])
		in.HeadsBorrowed.Add(w.ctr.heads[relation.Borrowed])
	}
	w.release()
	return err
}

// ruleWalk is the state of one evaluation of a plan: the nested-loop join
// over its steps, and the buffers it reuses from row to row. The plan
// keeps the walk state its last evaluation released, so an evaluation of
// a cached plan allocates nothing of its own.
type ruleWalk struct {
	plan *Plan
	srcs []Source
	out  Output
	// leaf, when set, takes each derivation in out's place (Explain).
	leaf  func() error
	slots []value.Value
	head  value.Tuple // the head, grounded for out.AddDerived
	// ctr counts access paths locally; EvalPlan flushes it to the
	// Instruments in one atomic add per counter.
	ctr joinCounters
	// derived says a head was derived below the current row of the plan's
	// stop step.
	derived bool
	// frames[k] is step k's scratch.
	frames []frame
}

// frame is what one step of a walk would otherwise allocate per row.
type frame struct {
	tuple value.Tuple    // probe tuple: a ground atom, or an index probe's key values
	rows  []relation.Row // where an overlay merges the runs a probe finds (relation.LookupRun)
}

// maxKeptRows bounds the row buffer a released frame keeps, so a cached
// plan holds at most 64 × 48 B = 3 KB per step: a probe that merged a
// longer run pays for its buffer again next time rather than leave it
// behind for the life of the plan. The four benchmark workloads merge
// runs of at most 95 rows, and all but 73 of ~207 000 merges on
// tc_dred_mem hold 7 rows or fewer (E29).
const maxKeptRows = 64

// takeWalk returns the walk state the plan's last evaluation released, or
// new state when another evaluation holds it.
func (p *Plan) takeWalk() *ruleWalk {
	if w := p.scratch.Swap(nil); w != nil {
		return w
	}
	return &ruleWalk{plan: p, slots: make([]value.Value, p.nslots), frames: make([]frame, len(p.Steps))}
}

// release hands w back to its plan holding nothing of the evaluation it
// served: no source, output or row, and no value a slot or buffer held.
func (w *ruleWalk) release() {
	w.srcs, w.out, w.leaf, w.ctr, w.derived = nil, nil, nil, joinCounters{}, false
	clear(w.slots)
	clear(w.head)
	for i := range w.frames {
		fr := &w.frames[i]
		clear(fr.tuple)
		if fr.rows = fr.rows[:cap(fr.rows)]; len(fr.rows) > maxKeptRows {
			fr.rows = nil
		}
		clear(fr.rows)
	}
	w.plan.scratch.Store(w)
}

func (w *ruleWalk) walk(k int, count int64) error {
	steps := w.plan.Steps
	if k == len(steps) {
		if w.leaf != nil {
			return w.leaf()
		}
		head, err := ground(w.head, w.plan.head, w.slots)
		if err != nil {
			return err
		}
		w.head = head
		w.ctr.heads[w.out.AddDerived(head, count)]++
		w.derived = true
		return nil
	}
	st, fr := &steps[k], &w.frames[k]
	rel := w.srcs[st.Lit].Rel
	switch st.Kind {
	case AccessFilter:
		l, err := st.args[0].eval(w.slots)
		if err != nil {
			return err
		}
		r, err := st.args[1].eval(w.slots)
		if err != nil {
			return err
		}
		if st.cmp.Eval(l, r) {
			return w.walk(k+1, count)
		}
		return nil

	case AccessNegFilter:
		t, err := ground(fr.tuple, st.args, w.slots)
		if err != nil {
			return err
		}
		fr.tuple = t
		w.ctr.probes++
		if !rel.Has(t) {
			return w.walk(k+1, count)
		}
		return nil

	case AccessPoint, AccessPointFilter:
		t, err := ground(fr.tuple, st.args, w.slots)
		if err != nil {
			return err
		}
		fr.tuple = t
		w.ctr.probes++
		if c := rel.Count(t); c != 0 {
			return w.walk(k+1, count*c)
		}
		return nil

	case AccessIndex:
		// The ops still check every column, so a reused subset index (or a
		// conservative plan) only costs extra candidates, never wrong rows.
		key, err := ground(fr.tuple, st.args, w.slots)
		if err != nil {
			return err
		}
		fr.tuple = key
		w.ctr.probes++
		run := relation.LookupRun(rel, st.Cols, key, &fr.rows)
		for i := range run.Len() {
			if err := w.emit(st, k, run.Row(i), count); err != nil || w.cut(k) {
				return err
			}
		}
		return nil

	default: // AccessScan
		w.ctr.scans++
		switch r := rel.(type) {
		case *relation.Relation:
			for i := range r.Len() {
				if err := w.emit(st, k, r.At(i), count); err != nil || w.cut(k) {
					return err
				}
			}
			return nil
		case interface{ At(int) relation.Row }: // Refs, Places
			for i := range rel.Len() {
				if err := w.emit(st, k, r.At(i), count); err != nil || w.cut(k) {
					return err
				}
			}
			return nil
		}
		var err error
		cut := false
		rel.Each(func(row relation.Row) {
			if err == nil && !cut {
				err = w.emit(st, k, row, count)
				cut = w.cut(k)
			}
		})
		return err
	}
}

// cut reports whether step k takes no more rows: below a rederivation
// plan's stop step, once a head was derived. The stop step itself goes on
// with its next row, for which no head is derived yet.
func (w *ruleWalk) cut(k int) bool {
	if !w.derived || w.plan.stop < 0 {
		return false
	}
	if k > w.plan.stop {
		return true
	}
	w.derived = false
	return false
}

// emit matches one candidate row of step k's literal and, on success,
// walks the remaining steps with the row's variables in their slots.
func (w *ruleWalk) emit(st *PlanStep, k int, row relation.Row, count int64) error {
	if !match(st.ops, row.Tuple, w.slots) {
		return nil
	}
	return w.walk(k+1, count*row.Count)
}
