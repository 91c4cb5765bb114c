package ivm

import (
	"fmt"
	"io"
	"time"

	"ivm/internal/core/dred"
	"ivm/internal/parser"
	"ivm/internal/relation"
)

// foldLocked replays a delta-carrying record as a commit of its own:
// fold it (foldRecordLocked), push its deltas onto the version map, and
// hand the record on as it was received — to the log stage, to
// commit-record subscribers — with the change set the primary's
// subscribers saw.
func (v *Views) foldLocked(r *applyReq, next map[string]*relation.Versioned, version uint64) {
	if r.rec.Version != version {
		r.err = &DivergenceError{Version: r.rec.Version, At: version - 1}
		return
	}
	deltas, cs, err := v.foldRecordLocked(*r.rec)
	if err != nil {
		r.err = err
		return
	}
	if _, edit := r.rec.Program(); edit {
		v.refreshEmptiesLocked(next)
	}
	v.pushDeltasLocked(next, deltas)
	cs.version = version
	r.cs, r.commit = cs, *r.rec
}

// foldRecordLocked is the fold step of both replay sites. It reads the
// record's deltas into frozen delta relations, resolving each row against
// the stored relation by its key — a row already stored lends its tuple
// and key (a delete or a count bump allocates nothing), a new one gets a
// copy of its key with the tuple's strings inside that copy; the payload
// is never retained — and vetting it: a count that would fall below zero
// is a *DivergenceError, returned before anything has moved. Then it
// merges them into the engine's storage. No script is parsed, no rule
// evaluated: one keyed lookup and one merge per delta row. It also derives
// the commit's visible change set, which the record does not carry: per
// derived, non-hidden predicate the frozen delta itself, or under set
// semantics the rows whose presence flips (dred.Flip, read off the count
// the lookup fetched) — the delta again where each row flips by its own
// count, else one Pick of it made to size. A rule edit's record installs the program it carries,
// under which its change set is read — a predicate the edit stops deriving
// is reported as the primary reported it — and then folds its Δ. Its
// stamp is checked against what maintains the program it installs.
func (v *Views) foldRecordLocked(rec CommitRecord) (_ map[string]*relation.Relation, _ *ChangeSet, err error) {
	start := time.Now()
	prog, strategy := v.eng.Program(), v.strategy
	src, edit := rec.Program()
	var undo func()
	defer func() {
		if err != nil && undo != nil {
			undo()
		}
	}()
	if edit {
		// Installed first, so that the stamp is checked against what
		// maintains the edited program and the deltas are vetted against
		// the arities it gives emptied relations; undone if refused.
		res, err := parser.Parse(src)
		if err == nil {
			undo, err = v.eng.Install(res.Program)
		}
		if err == nil {
			prog, strategy = res.Program, regime(v.eng)
		} else if rec.Engine() == v.cfg.stamp(strategy) {
			return nil, nil, fmt.Errorf("ivm: commit record %d: rule edit: %w", rec.Version, err)
		} // else it was cut under another configuration, as the stamp says
	}
	if by := rec.Engine(); by != v.cfg.stamp(strategy) {
		return nil, nil, &DivergenceError{Version: rec.Version, At: rec.Version - 1, Engine: engineString(by), Have: engineString(v.cfg.stamp(strategy))}
	}
	derived := prog.DerivedPreds()
	set := v.cfg.semantics == SetSemantics
	deltas := make(map[string]*relation.Relation)
	cs := &ChangeSet{perPred: make(map[string]*relation.Relation)}
	rows := 0
	for rd := rec.Deltas(); ; {
		pred, arity, nrows, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		stored := v.eng.Stored(pred)
		if stored == nil {
			stored = relation.Store(relation.New(arity))
		}
		if a := stored.Arity(); a >= 0 && a != arity {
			return nil, nil, &DivergenceError{Version: rec.Version, At: rec.Version - 1, Pred: pred}
		}
		d := relation.NewSized(arity, nrows)
		report := derived[pred] && !v.hidden[pred]
		var flips []int8 // each row's statement (2) flip, for a reported set view
		if report && set {
			flips = make([]int8, nrows)
		}
		own := true
		for i := 0; i < nrows; i++ {
			count, key, err := rd.Row()
			if err != nil {
				return nil, nil, err
			}
			row, ok := stored.Stored(key) // or the base's row the state deleted, at count 0
			if !ok {
				if row, err = relation.RowFromKey(key, arity); err != nil {
					return nil, nil, fmt.Errorf("ivm: commit record %d: %s row: %w", rec.Version, pred, err)
				}
			}
			if row.Count+count < 0 {
				return nil, nil, &DivergenceError{Version: rec.Version, At: rec.Version - 1, Pred: pred, Tuple: row.Tuple}
			}
			dr := row.WithCount(count)
			d.AddRow(dr)
			if flips != nil {
				f := dred.Flip(dr, row.Count)
				flips[i], own = int8(f), own && f == count
			}
		}
		if _, dup := deltas[pred]; dup || d.Len() != nrows {
			return nil, nil, fmt.Errorf("ivm: commit record %d lists %s or one of its rows twice", rec.Version, pred)
		}
		d.Freeze()
		deltas[pred] = d
		rows += nrows
		// The change set is Δ itself, under set semantics too when each
		// row flips by its own count; else the rows that flip, made to size.
		visible := d
		if !own {
			visible = d.Pick(func(p int, _ int64) int64 { return int64(flips[p]) })
		}
		if report && !visible.Empty() {
			cs.perPred[pred] = visible
		}
	}
	if edit {
		v.programSrc, v.strategy = src, strategy
	}
	v.eng.Fold(deltas)
	v.mReplayRows.Add(int64(rows))
	v.folded = time.Since(start)
	v.mReplaySecs.Observe(v.folded)
	return deltas, cs, nil
}

// DivergenceError reports a commit record that does not fit these views:
// it is not their next commit — replaying it would publish a version
// other than the one it is stamped with — or one of its delta rows would
// take a stored count below zero, or it was cut under another strategy or
// semantics, whose stored counts are not these views'. Either way the
// state it was cut against is not the state it would land on. Both replay
// sites — crash recovery and a follower's tail — stop on it with nothing
// applied.
type DivergenceError struct {
	// Version is the record's stamp; At is the version the views were at.
	Version, At uint64
	// Pred and Tuple name the delta row that does not fit the stored
	// relation (Tuple nil: the whole delta, by its arity); empty for a
	// record that is merely not the next one.
	Pred  string
	Tuple Tuple
	// Engine is the configuration the record was cut under and Have the
	// views' own, when the two differ; empty otherwise.
	Engine, Have string
}

func (e *DivergenceError) Error() string {
	switch {
	case e.Engine != "":
		return fmt.Sprintf("ivm: diverged: commit record %d was cut by %s views and these are %s: count changes fit only the stored counts of the configuration that cut them (a store opens under that one; after a Sync or clean Shutdown, which leaves no record behind, under any)", e.Version, e.Engine, e.Have)
	case e.Pred != "":
		return fmt.Sprintf("ivm: diverged: commit record %d does not fit the stored state: its change to %s%s", e.Version, e.Pred, e.Tuple)
	}
	return fmt.Sprintf("ivm: diverged: commit record is stamped version %d but the views are at version %d", e.Version, e.At)
}

// stamp is the byte views of this configuration put on the commit records
// and states they cut and demand of the ones they fold and load: what
// maintains the program (strategy — Auto only for a mixed program) and the
// semantics, twice, as records cut when counting could keep duplicate
// counts inside a set view spell it. Stored derivation counts — and so a
// record's count changes — differ between any two.
func (c config) stamp(strategy Strategy) byte {
	return byte(strategy)<<2 | byte(c.semantics)<<1 | byte(c.semantics)
}

// engineString names a stamp; a record cut with duplicate counts inside a
// set view reads "(duplicate counts inside)".
func engineString(b byte) string {
	s := fmt.Sprintf("%v/%v", Strategy(b>>2), Semantics(b>>1&1))
	if b>>1&1 != b&1 {
		s += fmt.Sprintf(" (%v counts inside)", Semantics(b&1))
	}
	return s
}

// ApplyCommitRecord replays one commit record at its stamped version: the
// one replay step of a follower's 'D' records and of OpenStore's WAL
// recovery. A record carrying its committed deltas is folded, not re-run — the state after n commits is
// x ⊎ Δ₁ ⊎ … ⊎ Δₙ — so it costs O(|Δ|): vetted against stored content,
// merged into the engine's relations and the version chain, published,
// reported to subscribers as the primary reported it, and logged and
// re-shipped by this node as the bytes it arrived as (a rule edit's record
// installs its program first). The views must sit at rec.Version-1, run
// the strategy and semantics the record was cut under, and hold every
// row it takes away, or a *DivergenceError is
// returned with nothing applied. A script record (format 1) is re-derived
// by ApplyScriptReplicated instead. Either way the record's keys enter
// the history, so a client retrying across a crash or a failover still
// gets a dedup answer stamped with the replayed version. published is
// when the node that shipped the record published it (zero if unknown:
// the WAL keeps no publish times); the version's trace carries it beside
// its own receive, fold and publish (ApplyTrace.PrimaryPublished).
func (v *Views) ApplyCommitRecord(rec CommitRecord, published time.Time) (*ChangeSet, error) {
	return v.applyCommitRecord(&applyReq{rec: &rec, published: published})
}

// applyCommitRecord is ApplyCommitRecord for r, a request to fold r.rec;
// a recovered record's entry in the history holds its version and keys
// only.
func (v *Views) applyCommitRecord(r *applyReq) (*ChangeSet, error) {
	if at := v.cur.Load().id; at != r.rec.Version-1 {
		return nil, &DivergenceError{Version: r.rec.Version, At: at}
	}
	if r.rec.HasDeltas() {
		cs, _, err := v.submit(r)
		return cs, err
	}
	cs, err := v.ApplyScriptReplicated(r.rec.Script, r.rec.Keys)
	if err != nil {
		return nil, err
	}
	if cs.Version() != r.rec.Version {
		return nil, &DivergenceError{Version: r.rec.Version, At: cs.Version()}
	}
	return cs, nil
}

// ApplyScriptReplicated re-derives a format-1 record: its delta script
// goes through full maintenance and its keys enter the history. Kept
// for stores written before records carried their deltas and for the
// layered benchmark's re-apply kernel, which compiles against it; to be
// deleted with format 1.
func (v *Views) ApplyScriptReplicated(script string, keys []string) (*ChangeSet, error) {
	u, err := ParseUpdate(script)
	if err != nil {
		return nil, err
	}
	cs, _, err := v.submit(&applyReq{u: u, keys: keys, replay: true})
	return cs, err
}
