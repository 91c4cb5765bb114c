package eval

import (
	"fmt"
	"slices"

	"ivm/internal/agg"
	"ivm/internal/datalog"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// RuleLit addresses one body literal of one program rule; it keys an
// engine's group tables of aggregate subgoals.
type RuleLit struct {
	Rule, Lit int
}

// GroupTable materializes one GROUPBY subgoal: the relation T over
// (groupVars..., result) with one tuple per non-empty group, plus the
// per-group incremental aggregate state needed to run Algorithm 6.1.
// A group whose aggregate cannot be updated incrementally (MIN/MAX losing
// their extremum) is rebuilt by rescanning the grouped relation restricted
// to that group — the paper's fallback for non-incrementally-computable
// cases.
type GroupTable struct {
	g         *datalog.Aggregate
	groupCols []int // position of each grouping var in the inner atom (first occurrence)
	groups    map[string]*groupEntry
	rel       *relation.Relation // committed T
	// undo holds pre-ApplyDelta snapshots of touched groups until Commit
	// or Rollback resolves the pending delta, and touched their keys in
	// first-touch order, the order of ΔT's rows; both are cleared, not
	// dropped. spare holds the old states Commit released, for the next
	// ApplyDelta's copies; it never holds more than the most groups one
	// ApplyDelta touched. rows is rescan's probe buffer.
	undo    map[string]undoEntry
	touched []string
	spare   []agg.State
	rows    []relation.Row
	changed []relation.Row // ApplyDelta's ΔT rows, cleared after each call

	// The inner atom, compiled once (slots.go): the pattern, the slots of
	// the grouping variables and the aggregated term. match reuses slots
	// and gv, the grouping values it returns, from row to row (a table is
	// built and maintained by one goroutine at a time).
	ops    []colOp
	gslots []int
	arg    term
	slots  []value.Value
	gv     value.Tuple
}

type groupEntry struct {
	key       string // groupVals' canonical key, built once with the entry
	groupVals value.Tuple
	state     agg.State
	cur       value.Tuple // current T tuple (nil if group empty)
}

// row builds the group's keyed T row for aggregate value v, in one
// allocation (relation.KeyedRow), and makes its tuple the current one.
func (e *groupEntry) row(v value.Value) relation.Row {
	var buf [4]value.Value // a block's most values: a longer tuple spills
	row := relation.KeyedRow(append(append(buf[:0], e.groupVals...), v), 1)
	e.cur = row.Tuple
	return row
}

// undoEntry snapshots one group before an uncommitted ApplyDelta touched
// it, so Rollback can restore the table if maintenance aborts. e is nil
// for a group the ApplyDelta created; otherwise state and cur are what e
// held, and e goes on with a copy of state.
type undoEntry struct {
	e     *groupEntry
	state agg.State
	cur   value.Tuple
}

// BuildGroupTable computes the GROUPBY relation for g over u.
func BuildGroupTable(g *datalog.Aggregate, u relation.Reader) (*GroupTable, error) {
	cols, err := groupColumns(g)
	if err != nil {
		return nil, err
	}
	t := &GroupTable{
		g:         g,
		groupCols: cols,
		groups:    make(map[string]*groupEntry),
		rel:       relation.New(len(g.GroupBy) + 1),
		undo:      make(map[string]undoEntry),
	}
	if err := t.compile(); err != nil {
		return nil, err
	}
	var ferr error
	u.Each(func(row relation.Row) {
		if ferr != nil {
			return
		}
		gv, av, ok, err := t.match(row.Tuple)
		if err != nil || !ok {
			ferr = err
			return
		}
		e, _ := t.entry(gv)
		ferr = fold(e, av, row.Count)
	})
	if ferr != nil {
		return nil, ferr
	}
	// Materialize T.
	for _, e := range t.groups {
		if v, ok := e.state.Result(); ok {
			t.rel.AddRow(e.row(v))
		}
	}
	t.dropEmpty()
	return t, nil
}

// Rel returns the committed T relation. Callers must treat it as
// read-only; it advances only through Commit.
func (t *GroupTable) Rel() *relation.Relation { return t.rel }

// Agg returns the subgoal this table materializes.
func (t *GroupTable) Agg() *datalog.Aggregate { return t.g }

// fold routes one grouped-relation row (aggregated value av, signed
// count) into its group's state: positive counts Add, negative counts
// Remove. A group whose state can no longer answer exactly is marked for
// rescan (state == nil) and further rows for it are ignored until the
// rescan rebuilds it.
func fold(e *groupEntry, av value.Value, count int64) error {
	if e.state == nil {
		return nil // pending rescan; the rescan sees the full new relation
	}
	if count > 0 {
		return e.state.Add(av, count)
	}
	if count < 0 {
		rescan, err := e.state.Remove(av, -count)
		if err != nil {
			return err
		}
		if rescan {
			e.state = nil // rebuild from the grouped relation later
		}
	}
	return nil
}

// compile compiles the inner atom's pattern, the grouping variables and
// the aggregated term over the slots the pattern binds.
func (t *GroupTable) compile() error {
	slots := make(slotOf)
	ops, err := compilePattern(t.g.Inner.Args, slots)
	if err != nil {
		return err
	}
	for _, v := range t.g.GroupBy {
		s, ok := slots[string(v)]
		if !ok {
			return fmt.Errorf("eval: grouping variable %s unbound by %s", v, t.g.Inner)
		}
		t.gslots = append(t.gslots, s)
	}
	if t.arg, err = compileTerm(t.g.Arg, slots); err != nil {
		return err
	}
	t.ops, t.slots = ops, make([]value.Value, len(slots))
	return nil
}

// match checks row against the inner atom pattern; on success it returns
// the grouping values and the aggregated expression's value. gv lives in
// the table's scratch and is valid until the next match.
func (t *GroupTable) match(tuple value.Tuple) (gv value.Tuple, av value.Value, ok bool, err error) {
	if !match(t.ops, tuple, t.slots) {
		return nil, value.Value{}, false, nil
	}
	gv = t.gv[:0]
	for _, s := range t.gslots {
		gv = append(gv, t.slots[s])
	}
	t.gv = gv
	if av, err = t.arg.eval(t.slots); err != nil {
		return nil, value.Value{}, false, err
	}
	return gv, av, true, nil
}

// entry returns gv's group, creating it (with a copy of gv) when absent;
// existed tells the two apart. The probe encodes gv in a stack buffer, so
// only a new group pays for a key string.
func (t *GroupTable) entry(gv value.Tuple) (e *groupEntry, existed bool) {
	var buf [value.KeyScratch]byte
	kb := gv.AppendKey(buf[:0])
	if e, ok := t.groups[string(kb)]; ok {
		return e, true
	}
	e = &groupEntry{key: string(kb), groupVals: slices.Clone(gv), state: t.newState()}
	t.groups[e.key] = e
	return e, false
}

func (t *GroupTable) newState() agg.State {
	st, err := agg.New(t.g.Func)
	if err != nil {
		panic(err) // function validated at program validation time
	}
	return st
}

// copyOf returns a copy of st in a spare state, or a new one if none is left.
func (t *GroupTable) copyOf(st agg.State) agg.State {
	var c agg.State
	if n := len(t.spare); n > 0 {
		c, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		c = t.newState()
	}
	c.Set(st)
	return c
}

func (t *GroupTable) dropEmpty() {
	for k, e := range t.groups {
		if e.cur == nil {
			if _, ok := e.state.Result(); !ok {
				delete(t.groups, k)
			}
		}
	}
}

// ApplyDelta runs Algorithm 6.1: for every group touched by du it updates
// the group's state (rescanning uNew when the aggregate is not
// incrementally computable downward) and emits ΔT — the old group tuple
// with count −1 and the new one with +1 whenever the aggregate changed.
//
// The committed relation (Rel) is untouched until Commit(ΔT) is called, so
// callers can read old T, ΔT, and new T (= Overlay(Rel, ΔT)) while
// evaluating delta rules. A successful ApplyDelta must be followed by
// exactly one Commit or Rollback before the next ApplyDelta; a failed one
// has rolled the table back itself. Either way undo is empty on entry,
// so its keys are the groups this call touched.
//
// A changed group builds one row, its new tuple and key in one allocation
// (relation.KeyedRow), which enters ΔT keyed: its retraction is T's stored
// row. The new tuple counts in in.HeadsBuilt, since the head of the rule
// over T borrows it instead of building its own.
//
// Group values and aggregates compare by key identity (==), as the
// relations holding them do: -0.0 is not 0.0 and NaN is itself.
func (t *GroupTable) ApplyDelta(du relation.Reader, uNew relation.Reader, in *Instruments) (*relation.Relation, error) {
	var ferr error
	du.Each(func(row relation.Row) {
		if ferr != nil {
			return
		}
		gv, av, ok, err := t.match(row.Tuple)
		if err != nil {
			ferr = err
			return
		}
		if !ok {
			return
		}
		e, existed := t.entry(gv)
		if _, snapped := t.undo[e.key]; !snapped {
			var ue undoEntry
			if existed {
				ue = undoEntry{e: e, state: e.state, cur: e.cur}
				e.state = t.copyOf(e.state)
			}
			t.undo[e.key] = ue
			t.touched = append(t.touched, e.key)
		}
		ferr = fold(e, av, row.Count)
	})
	if ferr != nil {
		t.Rollback()
		return nil, ferr
	}

	// ΔT's rows are distinct tuples (a group's old and new tuple differ,
	// and groups do not share tuples): collected first, they size ΔT.
	changed := t.changed[:0]
	defer func() { clear(changed); t.changed = changed[:0] }()
	var buf [value.KeyScratch]byte
	var built int64
	for _, k := range t.touched {
		e := t.groups[k]
		if e.state == nil {
			if err := t.rescan(e, uNew); err != nil {
				t.Rollback()
				return nil, err
			}
			if in != nil {
				in.groupRescans.Inc()
			}
		}
		// Only cur's last value, the aggregate, can move: only then build.
		v, ok := e.state.Result()
		switch {
		case e.cur != nil && ok && e.cur[len(e.cur)-1] == v:
			// unchanged
		case e.cur == nil && !ok:
			delete(t.groups, k)
		default:
			if e.cur != nil {
				old, _ := t.rel.Stored(e.cur.AppendKey(buf[:0])) // e.cur is T's, keyed
				changed = append(changed, old.WithCount(-1))
			}
			if e.cur = nil; ok {
				changed = append(changed, e.row(v))
				built++
			} else {
				delete(t.groups, k)
			}
		}
	}
	deltaT := relation.NewSized(len(t.g.GroupBy)+1, len(changed))
	for _, row := range changed {
		deltaT.AddRow(row)
	}
	if in != nil {
		in.HeadsBuilt.Add(built)
	}
	return deltaT, nil
}

// rescan rebuilds a group's state from the new grouped relation.
func (t *GroupTable) rescan(e *groupEntry, uNew relation.Reader) error {
	st := t.newState()
	e.state = st
	run := relation.LookupRun(uNew, t.groupCols, e.groupVals, &t.rows)
	defer func() { clear(t.rows) }()
	for i := range run.Len() {
		row := run.Row(i)
		gv, av, ok, err := t.match(row.Tuple)
		if err != nil {
			return err
		}
		if !ok || !slices.Equal(gv, e.groupVals) {
			continue
		}
		if row.Count > 0 {
			if err := st.Add(av, row.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// Commit folds a previously returned ΔT into the committed relation and
// returns the undo snapshots' states to the spare list.
func (t *GroupTable) Commit(deltaT *relation.Relation) {
	t.rel.MergeDelta(deltaT)
	for _, ue := range t.undo {
		if ue.e != nil {
			t.spare = append(t.spare, ue.state)
		}
	}
	clear(t.undo)
	t.touched = slices.Delete(t.touched, 0, len(t.touched))
}

// Rollback restores the group states to their last committed values,
// undoing an ApplyDelta whose maintenance round aborted. The committed
// relation was never touched, so only group states and cached tuples
// revert.
func (t *GroupTable) Rollback() {
	for k, ue := range t.undo {
		if ue.e == nil {
			delete(t.groups, k)
			continue
		}
		ue.e.state, ue.e.cur = ue.state, ue.cur
		t.groups[k] = ue.e
	}
	clear(t.undo)
	t.touched = slices.Delete(t.touched, 0, len(t.touched))
}

// groupColumns locates each grouping variable's first position in the
// inner atom.
func groupColumns(g *datalog.Aggregate) ([]int, error) {
	cols := make([]int, len(g.GroupBy))
	for i, v := range g.GroupBy {
		cols[i] = -1
		for j, a := range g.Inner.Args {
			if av, ok := a.(datalog.Var); ok && av == v {
				cols[i] = j
				break
			}
		}
		if cols[i] < 0 {
			return nil, fmt.Errorf("eval: grouping variable %s not found in %s", v, g.Inner)
		}
	}
	return cols, nil
}
