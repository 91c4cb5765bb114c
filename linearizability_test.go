package ivm_test

// Linearizability / snapshot-consistency property suite for the MVCC
// read path and the coalescing update scheduler. N writers race M
// snapshot readers under -race; afterwards every observed snapshot must
// be bit-identical (tuples AND derivation counts, for every stored
// predicate) to a sequential rematerialization of some prefix of the
// committed batch log — the prefix named by the snapshot's version.
// ChangeSet.Version ties each Apply to the version that published it,
// so "state as of version V" is exactly the initial base plus every
// update whose change set was stamped with a version <= V.
//
// Repeatable reads are checked too: a Snapshot handle re-read after all
// writers finish must return exactly what it returned at pin time.

import (
	"fmt"
	"sync"
	"testing"

	"ivm"
)

// linOp is one committed base-table operation, replayable onto a fresh
// database.
type linOp struct {
	pred  string
	tuple ivm.Tuple
	count int64 // +1 insert, -1 delete
}

// linTrialConfig is one program/strategy under test.
type linTrialConfig struct {
	name    string
	program string
	opts    []ivm.Option
	// initial facts, loaded into both the live database and every
	// replay database.
	facts string
}

func linConfigs() []linTrialConfig {
	return []linTrialConfig{
		{
			name: "counting-set",
			program: `
				hop(X,Y) :- link(X,Z), link(Z,Y).
				fan(X)   :- link(X,Y), link(X,Z), Y != Z.
			`,
			facts: `link(a,b). link(b,c). link(c,a).`,
		},
		{
			name:    "dred-recursive",
			program: `tc(X,Y) :- link(X,Y). tc(X,Y) :- tc(X,Z), link(Z,Y).`,
			facts:   `link(a,b). link(b,c).`,
		},
		{
			name:    "counting-duplicate",
			program: `hop(X,Y) :- link(X,Z), link(Z,Y).`,
			opts:    []ivm.Option{ivm.WithSemantics(ivm.DuplicateSemantics)},
			facts:   `link(a,b). link(b,c).`,
		},
	}
}

// linObservation is one pinned snapshot plus what it showed at pin time.
type linObservation struct {
	snap *ivm.Snapshot
	ver  uint64
	rows map[string][]ivm.Row
}

func snapshotRows(s *ivm.Snapshot) map[string][]ivm.Row {
	out := make(map[string][]ivm.Row)
	for _, pred := range s.Preds() {
		out[pred] = s.Rows(pred)
	}
	return out
}

// replayPrefix rematerializes the trial's program over the initial facts
// plus every committed op with version <= ver, sequentially.
func replayPrefix(t *testing.T, cfg linTrialConfig, log []struct {
	ver uint64
	ops []linOp
}, ver uint64) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(cfg.facts)
	// Net counts: commutative inserts/deletes across commits collapse to
	// their sum, x ⊎ Δ₁ ⊎ … ⊎ Δₙ.
	type key struct {
		pred string
		k    string
	}
	net := make(map[key]struct {
		tuple ivm.Tuple
		pred  string
		count int64
	})
	for _, entry := range log {
		if entry.ver > ver {
			continue
		}
		for _, op := range entry.ops {
			k := key{op.pred, op.tuple.Key()}
			cur := net[k]
			cur.tuple, cur.pred = op.tuple, op.pred
			cur.count += op.count
			net[k] = cur
		}
	}
	for _, e := range net {
		if e.count != 0 {
			db.InsertTuple(e.pred, e.tuple, e.count)
		}
	}
	v, err := db.Materialize(cfg.program, cfg.opts...)
	if err != nil {
		t.Fatalf("replay materialize: %v", err)
	}
	return v
}

func runLinTrial(t *testing.T, cfg linTrialConfig, trial int) {
	t.Helper()
	const (
		writers      = 3
		opsPerWriter = 8
		readers      = 3
		pinsEach     = 4
	)
	db := ivm.NewDatabase()
	db.MustLoad(cfg.facts)
	v, err := db.Materialize(cfg.program, cfg.opts...)
	if err != nil {
		t.Fatal(err)
	}

	var (
		logMu sync.Mutex
		log   []struct {
			ver uint64
			ops []linOp
		}
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	// Writers own disjoint keyspaces (writer w only touches sources
	// named w<w>t<i>), so every delete refers to a tuple that writer
	// committed earlier and batches always validate.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				src := fmt.Sprintf("w%dt%d_%d", w, trial%7, i)
				ins := []linOp{{pred: "link", tuple: ivm.T(src, "hub"), count: 1}}
				cs, err := v.Apply(ivm.NewUpdate().Insert("link", src, "hub"))
				if err != nil {
					errCh <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
				logMu.Lock()
				log = append(log, struct {
					ver uint64
					ops []linOp
				}{cs.Version(), ins})
				logMu.Unlock()
				// Delete every third own insert again, exercising the
				// deletion path (and coalesced insert+delete merging).
				if i%3 == 2 {
					del := []linOp{{pred: "link", tuple: ivm.T(src, "hub"), count: -1}}
					cs, err := v.Apply(ivm.NewUpdate().Delete("link", src, "hub"))
					if err != nil {
						errCh <- fmt.Errorf("writer %d delete %d: %w", w, i, err)
						return
					}
					logMu.Lock()
					log = append(log, struct {
						ver uint64
						ops []linOp
					}{cs.Version(), del})
					logMu.Unlock()
				}
			}
		}(w)
	}

	obsCh := make(chan linObservation, readers*pinsEach)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for p := 0; p < pinsEach; p++ {
				s := v.Snapshot()
				ver := s.Version()
				rows := snapshotRows(s)
				// The handle must be repeatable immediately, even while
				// writers publish newer versions underneath it.
				if s.Version() != ver {
					errCh <- fmt.Errorf("reader %d: snapshot version moved %d -> %d", r, ver, s.Version())
					return
				}
				obsCh <- linObservation{snap: s, ver: ver, rows: rows}
				// A direct read may see a newer version but never an
				// older one than a snapshot pinned before it.
				if cur := v.Snapshot().Version(); cur < ver {
					errCh <- fmt.Errorf("reader %d: version regressed %d -> %d", r, ver, cur)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	close(obsCh)
	for err := range errCh {
		t.Fatal(err)
	}

	finalVer := v.Snapshot().Version()
	for obs := range obsCh {
		// Repeatable read: the handle still returns exactly what it
		// returned at pin time, although up to finalVer-obs.ver newer
		// versions have been published since.
		for pred, rows := range obs.rows {
			if again := obs.snap.Rows(pred); !sameRows(rows, again, true) {
				t.Fatalf("%s trial %d: snapshot v%d changed mid-use for %s (final version %d)",
					cfg.name, trial, obs.ver, pred, finalVer)
			}
		}
		// Consistency: the snapshot equals the sequential
		// rematerialization of the committed prefix it names.
		ref := replayPrefix(t, cfg, log, obs.ver)
		for pred, rows := range obs.rows {
			if want := ref.Rows(pred); !sameRows(want, rows, true) {
				t.Fatalf("%s trial %d: snapshot v%d diverges from sequential prefix for %s:\n  snap: %v\n  want: %v",
					cfg.name, trial, obs.ver, pred, rows, want)
			}
		}
		// And the reverse direction: the replay must not contain preds
		// the snapshot misses (new preds appear only via base inserts,
		// which the version does include).
		for _, pred := range ref.Snapshot().Preds() {
			if _, ok := obs.rows[pred]; !ok {
				if len(ref.Rows(pred)) > 0 {
					t.Fatalf("%s trial %d: snapshot v%d is missing predicate %s", cfg.name, trial, obs.ver, pred)
				}
			}
		}
	}
}

// TestSnapshotLinearizability is the headline property test: >100 trials
// across three program/strategy configurations, each racing writers and
// snapshot readers, each observed snapshot proven equal to a sequential
// prefix of the committed batch log.
func TestSnapshotLinearizability(t *testing.T) {
	trials := 35
	if testing.Short() {
		trials = 5
	}
	for _, cfg := range linConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < trials; trial++ {
				runLinTrial(t, cfg, trial)
			}
		})
	}
}
