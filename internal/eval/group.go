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
// Every function's state folds deletes exactly (agg), so a group moves
// from its Δ alone and the grouped relation is read only to build T.
type GroupTable struct {
	g      *datalog.Aggregate
	groups map[string]*groupEntry
	rel    *relation.Relation // committed T
	// undo holds pre-ApplyDelta snapshots of touched groups until Commit
	// or Rollback resolves the pending delta, and touched their keys in
	// first-touch order, the order of ΔT's rows. A Scalar state is copied:
	// the snapshot keeps the old state and the group goes on with a copy
	// made into a state from spare, where Commit puts the old states back
	// (it never holds more than the most groups one ApplyDelta touched).
	// A MIN or MAX state holds its group's values and is not copied:
	// journal records each fold it takes, and Rollback takes them back
	// newest-first. All are cleared, not dropped.
	undo    map[string]undoEntry
	touched []string
	spare   []agg.Scalar
	journal []folded
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
// for a group the ApplyDelta created; otherwise cur is what e held, and
// state, for a Scalar, the state e held before it went on with a copy.
type undoEntry struct {
	e     *groupEntry
	state agg.Scalar
	cur   value.Tuple
}

// folded is one fold a MIN or MAX state took: count copies of v in (count
// positive) or out.
type folded struct {
	e     *groupEntry
	v     value.Value
	count int64
}

// BuildGroupTable computes the GROUPBY relation for g over u.
func BuildGroupTable(g *datalog.Aggregate, u relation.Reader) (*GroupTable, error) {
	t := &GroupTable{
		g:      g,
		groups: make(map[string]*groupEntry),
		rel:    relation.New(len(g.GroupBy) + 1),
		undo:   make(map[string]undoEntry),
	}
	if err := t.compile(); err != nil {
		return nil, err
	}
	each := func(f func(e *groupEntry, av value.Value, count int64) error) (ferr error) {
		u.Each(func(row relation.Row) {
			if ferr == nil {
				gv, av, ok, err := t.match(row.Tuple)
				if ferr = err; ok {
					e, _ := t.entry(gv)
					ferr = f(e, av, row.Count)
				}
			}
		})
		return ferr
	}
	// A MIN or MAX group holds its values: a first pass counts its rows,
	// so that its values are made once at their size.
	if _, scalar := t.newState().(agg.Scalar); !scalar {
		rows := make(map[*groupEntry]int)
		if err := each(func(e *groupEntry, _ value.Value, _ int64) error { rows[e]++; return nil }); err != nil {
			return nil, err
		}
		for e, n := range rows {
			agg.Reserve(e.state, n)
		}
	}
	if err := each(fold); err != nil {
		return nil, err
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
// Remove.
func fold(e *groupEntry, av value.Value, count int64) error {
	if count > 0 {
		return e.state.Add(av, count)
	}
	return e.state.Remove(av, -count)
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
func (t *GroupTable) copyOf(st agg.Scalar) agg.Scalar {
	var c agg.Scalar
	if n := len(t.spare); n > 0 {
		c, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		c = t.newState().(agg.Scalar)
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

// ApplyDelta runs Algorithm 6.1: for every group touched by du it folds
// du's rows into the group's state and emits ΔT — the old group tuple with
// count −1 and the new one with +1 whenever the aggregate changed. It
// reads du and the table, never the grouped relation.
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
func (t *GroupTable) ApplyDelta(du relation.Reader, in *Instruments) (*relation.Relation, error) {
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
		scalar, isScalar := e.state.(agg.Scalar)
		if _, snapped := t.undo[e.key]; !snapped {
			var ue undoEntry
			if existed {
				ue = undoEntry{e: e, cur: e.cur}
				if isScalar {
					ue.state, e.state = scalar, t.copyOf(scalar)
				}
			}
			t.undo[e.key] = ue
			t.touched = append(t.touched, e.key)
		}
		if ferr = fold(e, av, row.Count); ferr == nil && !isScalar {
			t.journal = append(t.journal, folded{e, av, row.Count})
		}
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

// Commit folds a previously returned ΔT into the committed relation and
// returns the undo snapshots' states to the spare list.
func (t *GroupTable) Commit(deltaT *relation.Relation) {
	t.rel.MergeDelta(deltaT)
	for _, ue := range t.undo {
		if ue.state != nil {
			t.spare = append(t.spare, ue.state)
		}
	}
	t.reset()
}

// Rollback restores the group states to their last committed values,
// undoing an ApplyDelta whose maintenance round aborted. The committed
// relation was never touched, so only group states and cached tuples
// revert. A journaled fold is taken back by its inverse, which holds: the
// counts are integers and the values compare by identity.
func (t *GroupTable) Rollback() {
	for i := len(t.journal) - 1; i >= 0; i-- {
		if f := t.journal[i]; fold(f.e, f.v, -f.count) != nil {
			panic("eval: a group table's journal does not take back") // the fold it undoes put the copies there
		}
	}
	for k, ue := range t.undo {
		if ue.e == nil {
			delete(t.groups, k)
			continue
		}
		if ue.e.cur = ue.cur; ue.state != nil {
			ue.e.state = ue.state
		}
		t.groups[k] = ue.e
	}
	t.reset()
}

// reset empties the undo records of the delta Commit or Rollback resolved.
func (t *GroupTable) reset() {
	clear(t.undo)
	t.touched = slices.Delete(t.touched, 0, len(t.touched))
	t.journal = slices.Delete(t.journal, 0, len(t.journal))
}
