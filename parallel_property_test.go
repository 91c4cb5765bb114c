package ivm_test

// Property-based equivalence tests for parallel evaluation: for random
// base relations and update sequences, a Views maintained with a worker
// pool must be bit-identical — same tuples, same derivation counts, same
// reported change sets — to one maintained sequentially. Together the
// program families × quick.Check trials exceed 100 randomized runs.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ivm"
)

// parallelCases pairs each property program family with the strategy it
// exercises (counting for the nonrecursive families, DRed for the
// recursive ones).
var parallelCases = []struct {
	name     string
	src      string
	strategy ivm.Strategy
	weighted bool
}{
	{"join-counting", propertyPrograms[0].src, ivm.Counting, false},
	{"negation-counting", propertyPrograms[1].src, ivm.Counting, false},
	{"aggregation-counting", propertyPrograms[2].src, ivm.Counting, true},
	{"recursion-dred", propertyPrograms[3].src, ivm.DRed, false},
	{"recursion-negation-dred", propertyPrograms[4].src, ivm.DRed, false},
}

// sameRows demands exact tuple AND count equality (not just set
// agreement): the parallel merge must preserve derivation counts.
func sameRows(a, b []ivm.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Tuple.Equal(b[i].Tuple) || a[i].Count != b[i].Count {
			return false
		}
	}
	return true
}

func TestPropertyParallelMatchesSequential(t *testing.T) {
	for _, tc := range parallelCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				baseFacts := randomEdges(rng, 7, 12, tc.weighted).String()

				mk := func(workers int) *ivm.Views {
					db := ivm.NewDatabase()
					db.MustLoad(baseFacts)
					v, err := db.Materialize(tc.src,
						ivm.WithStrategy(tc.strategy), ivm.WithParallelism(workers))
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					return v
				}
				seq := mk(1)
				par := mk(4)

				check := func(round int) {
					for pred := range seq.Program().DerivedPreds() {
						if !sameRows(seq.Rows(pred), par.Rows(pred)) {
							t.Fatalf("seed %d round %d: %s diverges under parallelism\nseq %v\npar %v",
								seed, round, pred, seq.Rows(pred), par.Rows(pred))
						}
					}
				}
				check(-1) // initial materialization

				for round := 0; round < 6; round++ {
					d := buildDelta(rng, seq, tc.weighted)
					if d.Empty() {
						continue
					}
					borrowedSeq, borrowedPar := watchBorrowing(seq), watchBorrowing(par)
					csSeq, err := seq.Apply(d)
					if err != nil {
						t.Fatalf("seed %d round %d seq: %v", seed, round, err)
					}
					csPar, err := par.Apply(d)
					if err != nil {
						t.Fatalf("seed %d round %d par: %v", seed, round, err)
					}
					// Four workers read one lender: both outputs borrow
					// every stored row (two tasks may build one new tuple).
					borrowedSeq(t, fmt.Sprintf("seed %d round %d seq", seed, round))
					borrowedPar(t, fmt.Sprintf("seed %d round %d par", seed, round))
					// Reported change sets must match exactly too.
					sp, pp := csSeq.Preds(), csPar.Preds()
					if len(sp) != len(pp) {
						t.Fatalf("seed %d round %d: changed preds diverge %v vs %v", seed, round, sp, pp)
					}
					for i, pred := range sp {
						if pp[i] != pred || !sameRows(csSeq.Delta(pred), csPar.Delta(pred)) {
							t.Fatalf("seed %d round %d: Δ(%s) diverges\nseq %v\npar %v",
								seed, round, pred, csSeq.Delta(pred), csPar.Delta(pred))
						}
					}
					check(round)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 21}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestParallelDuplicateSemanticsCounts: under duplicate semantics the
// counting engine's stored multiplicities must survive parallel
// evaluation unchanged.
func TestParallelDuplicateSemanticsCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		baseFacts := randomEdges(rng, 6, 10, false).String()
		src := `
			hop(X,Y)     :- link(X,Z), link(Z,Y).
			tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
		`
		mk := func(workers int) *ivm.Views {
			db := ivm.NewDatabase()
			db.MustLoad(baseFacts)
			v, err := db.Materialize(src,
				ivm.WithSemantics(ivm.DuplicateSemantics), ivm.WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		seq := mk(1)
		par := mk(3)
		for round := 0; round < 5; round++ {
			d := buildDelta(rng, seq, false)
			if d.Empty() {
				continue
			}
			if _, err := seq.Apply(d); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if _, err := par.Apply(d); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, pred := range []string{"hop", "tri_hop"} {
				if !sameRows(seq.Rows(pred), par.Rows(pred)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestParallelAutoAndOptionResolution pins the WithParallelism contract.
func TestParallelAutoAndOptionResolution(t *testing.T) {
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Parallelism() != 1 {
		t.Fatalf("default parallelism = %d, want 1 (sequential)", v.Parallelism())
	}

	db2 := ivm.NewDatabase()
	db2.MustLoad(`link(a,b). link(b,c).`)
	v2, err := db2.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, ivm.WithParallelism(6))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Parallelism() != 6 {
		t.Fatalf("WithParallelism(6) resolved to %d", v2.Parallelism())
	}

	db3 := ivm.NewDatabase()
	db3.MustLoad(`link(a,b). link(b,c).`)
	v3, err := db3.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`,
		ivm.WithParallelism(ivm.AutoParallelism))
	if err != nil {
		t.Fatal(err)
	}
	if v3.Parallelism() < 1 {
		t.Fatalf("AutoParallelism resolved to %d, want >= 1", v3.Parallelism())
	}
}

// TestParallelEnvResolution: IVM_PARALLELISM supplies the default when no
// option is given.
func TestParallelEnvResolution(t *testing.T) {
	t.Setenv("IVM_PARALLELISM", "5")
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Parallelism() != 5 {
		t.Fatalf("IVM_PARALLELISM=5 resolved to %d", v.Parallelism())
	}

	t.Setenv("IVM_PARALLELISM", "auto")
	db2 := ivm.NewDatabase()
	db2.MustLoad(`link(a,b). link(b,c).`)
	v2, err := db2.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Parallelism() < 1 {
		t.Fatalf("IVM_PARALLELISM=auto resolved to %d", v2.Parallelism())
	}

	// An explicit option always wins over the environment.
	db3 := ivm.NewDatabase()
	db3.MustLoad(`link(a,b). link(b,c).`)
	v3, err := db3.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`, ivm.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if v3.Parallelism() != 2 {
		t.Fatalf("option should beat env: got %d", v3.Parallelism())
	}
}
