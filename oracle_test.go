package ivm_test

// The oracle: one seeded generator and one exactness checker for the
// paper's Theorems 4.1 and 7.1 (EXPERIMENTS.md E34, E40, E41, E43, E44, E46, E47, E49, E50, E51, E52, E54). A seed picks
// a program family, a strategy, set or duplicate semantics, an idempotency
// window, a leg — memory, fold, rederive, store or follower — and a stream
// of applies, concurrent bursts, retries, rule edits and operations the
// views must refuse; every eighth seed ends it with one large apply and
// 32 small ones (tiers). After every operation the views must hold the rows
// and counts the reference interpreter (reference_test.go, which shares no
// engine code) evaluates over the model's base and rules, and each
// ChangeSet and commit record must be the diff of consecutive evaluations,
// the fold law f(x ⊕ Δ) = f(x) ⊕ f′(x, Δ), a ChangeSet read only once the
// next operation has applied, as a caller may read it; each commit's trace
// carries its record's version and keys and a record of each stratum of
// the program, and every views' Trace is its current version's; a
// follower traces each version both nodes' histories trace with the
// primary's keys and publish time and a fold of its own. A mismatch is
// reported at the lowest stratum that differs, as the reference numbers
// them, with the seed, leg, version and that stratum's rules.
//
// Put back as one-line mutations (scripts/oracle_mutations.sh, which CI
// runs), these twenty-three bugs each fail the default budget (first
// failing seed in brackets): GroupTable.Rollback not taking back the
// folds a MIN/MAX group's journal holds [19]; GroupTable.Rollback keeping
// a SUM, COUNT, AVG or VARIANCE group's aborted state [19]; publishLocked
// skipping a group whose log stage failed [18]; the engine's edit not
// reinstalling the old program on error [7]; match's colCheck comparing
// floats by numeric == [28]; a MIN group counting a numeric tie as a copy
// of one of its values [19]; MIN counting a CompareNumeric tie as a copy
// [39]; a MIN/MAX value leaving its group with a copy left, so that the
// next extremum comes one copy early [2]; a SUM staying a Float once it
// held one [19]; SUM's Result one too many [2]; CmpLt evaluated as <=
// [9]; materialization skipping the semi-naive rounds after its seed
// pass [3]; counting
// committing its working Δ(head) uncopied and unfrozen [2]; a version's
// trace stamped with its predecessor's version [1]; the history's key
// index keeping a key after its commit left the history [3]; the history
// holding a hollow ChangeSet for a commit it has not shed [1]; counting
// cascading its Δ(head) copy as it is where a row flips the set image by
// ±1 but moves its count by ±2 [4]; a follower sharing a record's Δ as a
// set view's change set where the same holds [4]; a compaction leaving a
// run it keeps out of the rebuilt version chain [7]; a follower stamping
// its own clock as the primary's publish time [8]; a DRed image taking
// its Δ's negative sign part in step 3 as in step 1 [1]; a stored
// relation's settle taking a net row whose count differs from its base
// row's out of the net [10]; a built row's key copied into its block one
// byte short [2].

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	goparser "go/parser"
	"go/token"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/datalog"
	"ivm/internal/parser"
	"ivm/internal/replica"
	"ivm/internal/server"
	"ivm/internal/storage"
	"ivm/internal/value"
)

// oracleBudget is the number of seeds TestOracle runs.
const oracleBudget = 48

// oracleFamily is one program the generator draws.
type oracleFamily struct {
	name             string
	program          string            // datalog, or SQL when sql is set
	sql              bool              //
	facts            string            // fixed base facts, never deleted
	cols             map[string]string // base predicate → one value kind per column
	extras           []string          // rules AddRule adds one by one and RemoveRule takes back, last first; the last of arithmetic's and road-rail's makes a nonrecursive predicate recursive
	drain            string            // a predicate whose rule's removal the recomputation refuses
	recursive, arith bool
}

const (
	oracleHop = "hop(X,Y) :- link(X,Z), link(Z,Y).\ntri_hop(X,Y) :- hop(X,Z), link(Z,Y).\n"
	oracleTC  = "tc(X,Y) :- link(X,Y).\ntc(X,Y) :- tc(X,Z), link(Z,Y).\n"
)

var oracleFamilies = []oracleFamily{
	{name: "join", program: oracleHop, cols: map[string]string{"link": "nn"},
		extras: []string{`hop(X,Y) :- link(Y,X).`, `tri_hop(X,Y) :- link(X,Y), link(Y,X).`}},
	{name: "negation", program: oracleHop + `only(X,Y) :- tri_hop(X,Y), !hop(X,Y).
		deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).
		far(X,M) :- groupby(tri_hop(X,Y), [X], M = max(Y)).`,
		cols: map[string]string{"link": "nn"}, extras: []string{`hop(X,Y) :- link(Y,X).`}},
	{name: "arithmetic", program: `cost(S,D,C1+C2) :- link(S,I,C1), link(I,D,C2).
		mch(S,D,M) :- groupby(cost(S,D,C), [S,D], M = min(C)).
		spend(S,N) :- groupby(cost(S,D,C), [S], N = sum(C)).`,
		cols: map[string]string{"link": "nnw"}, extras: []string{`cost(S,D,C) :- link(D,S,C).`, `cost(S,D,C) :- cost(D,S,C).`}, arith: true},
	{name: "recursion", program: oracleTC, cols: map[string]string{"link": "nn", "hyper": "nn", "bridge": "nn"},
		extras: []string{`tc(X,Y) :- hyper(X,Y).`, `hub(X) :- tc(X,Y), hyper(Y,X).`,
			`tc(X,Y) :- bridge(X,Z), bridge(Z,Y).`, `tc(X,Y) :- link(Y,X).`}, recursive: true},
	{name: "recursion-negation", program: oracleTC + `sink(X,Y) :- tc(X,Y), !link(X,Y).
		reach(X,C) :- groupby(tc(X,Y), [X], C = count(Y)).`,
		cols:   map[string]string{"link": "nn", "hyper": "nn"},
		extras: []string{`tc(X,Y) :- hyper(X,Y).`, `hub(X) :- tc(X,Y), tc(Y,X).`}, recursive: true},
	{name: "sql", sql: true, program: `
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('n0','n1'), ('n1','n2'), ('n2','n3'), ('n1','n3');
		CREATE VIEW hop(s, d) AS SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
		CREATE VIEW deg(s, n) AS SELECT s, COUNT(*) AS n FROM hop GROUP BY s;`,
		cols: map[string]string{"link": "nn"}},
	{name: "road-rail", program: `edge(X,Y) :- road(X,Y).
		edge(X,Y) :- rail(X,Y).
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z), edge(Z,Y).
		outdeg(X,N) :- groupby(reach(X,Y), [X], N = count(Y)).
		hub(X) :- outdeg(X,N), N >= 3.
		minor(X) :- outdeg(X,N), !hub(X).`,
		cols: map[string]string{"road": "nn", "rail": "nn"}, extras: []string{`edge(X,Y) :- road(Y,X).`, `edge(X,Y) :- edge(Y,X).`}, recursive: true},
	{name: "pqrw", program: oracleTC + "p(X) :- q(X).\nr(X, Y + 1) :- w(X, Y), !p(X).\n",
		facts: `q(n0). w(n0,x).`, cols: map[string]string{"link": "nn", "hyper": "nn", "q": "n", "w": "nw"},
		extras: []string{`tc(X,Y) :- hyper(X,Y).`, `hub(X) :- tc(X,Y), tc(Y,X).`, `tc(X,Y) :- link(Y,X), q(Y).`},
		drain:  "p", recursive: true, arith: true},
	{name: "value-join", program: `r(X) :- c(X), b(X,W,Z).
		p(X,Z) :- a(X,V), b(X,V,Z).`,
		facts: `a(n0, 0.0). a(n1, -0.0). c(n0). c(n1).`, cols: map[string]string{"a": "mv", "b": "msn", "c": "m"}},
	{name: "values", program: `pair(X,Y) :- a(X,V), a(Y,V), X != Y.
		lo(X,M) :- groupby(a(X,V), [X], M = min(V)).
		hi(X,M) :- groupby(a(X,V), [X], M = max(V)).
		by(V,N) :- groupby(a(X,V), [V], N = count(X)).
		nb(X,N) :- groupby(b(X,V,Z), [X], N = count(Z)).
		top(X,M) :- groupby(b(X,V,Z), [X], M = max(V)).
		tot(X,S) :- groupby(b(X,V,Z), [X], S = sum(V)).
		pos(X,V) :- a(X,V), 0 < V.
		one(X) :- b(X,V,Z), V = 1.`,
		cols: map[string]string{"a": "mv", "b": "nsn"}},
}

// The value domain: n a node (m one of three), w a small weight, v the odd
// values (±0, 1 and 1.0, ints and floats at and beyond ±2⁵³; NaN too on the
// memory leg), s what a sum may add (no value near 2⁵³, whose float sums
// depend on the order they are added in).
var (
	oracleOdd = []any{0.0, math.Copysign(0, -1), int64(1), 1.0, int64(2),
		int64(1<<53 + 1), -int64(1<<53 + 1), float64(1 << 53), int64(1 << 53)}
	oracleSummable = []any{int64(1), 1.0, 0.0, math.Copysign(0, -1), int64(2), 2.5}
)

// The strategies go round with the seed. Auto, the default, takes three
// turns of the six, which keeps every seed that draws another strategy on
// the configuration the selections below (TestFoldEqualsRederive, …) were
// written against.
var oracleStrategies = []ivm.Strategy{ivm.Counting, ivm.DRed, ivm.Auto, ivm.Recompute, ivm.Auto, ivm.Auto}

// oracleAxes are what the default budget must reach: TestOracle fails if
// a generator change leaves one behind.
var oracleAxes = strings.Fields(`family:join family:negation family:arithmetic family:recursion
	family:recursion-negation family:sql family:road-rail family:pqrw family:value-join family:values
	strategy:counting strategy:dred strategy:recompute strategy:auto
	semantics:set semantics:duplicate window:2 leg:memory leg:fold leg:rederive leg:store leg:follower
	refused:materialize promoted reopened foreign-records coalesced same-key retry:dedup retry:evicted
	empty-key refused-key edits>10 edit:emptied edit:arity-reset rejected:absent rejected:arity rejected:string
	rejected:long-key rejected:non-finite rejected:unsafe-rule rejected:rule-arity rejected:edit-seed
	rejected:edit-propagate rejected:add-rule rejected:arity-clash rejected:wal tiers traces-joined
	extremum:deleted`)

func TestOracle(t *testing.T) {
	cov := make(map[string]int)
	for seed := int64(1); seed <= oracleBudget; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runOracle(t, seed, cov) })
	}
	for _, axis := range oracleAxes {
		if cov[axis] == 0 && !t.Failed() {
			t.Errorf("no seed of the %d reaches %s", oracleBudget, axis)
		}
	}
}

// TestReferenceSharesNoEngineCode guards the model's independence: the
// reference may read the parser, the datalog AST and the value order, and
// no other package of the module.
func TestReferenceSharesNoEngineCode(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "reference_test.go", nil, goparser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if allowed := map[string]bool{"ivm/internal/datalog": true, "ivm/internal/parser": true, "ivm/internal/value": true}; (path == "ivm" || strings.HasPrefix(path, "ivm/")) && !allowed[path] {
			t.Errorf("reference_test.go imports %s", path)
		}
	}
}

// TestEvaluateMatchesNaiveOracle holds a materialization under each
// strategy to the reference's naive fixpoint, rows and counts (DRed keeps
// every derived tuple once).
func TestEvaluateMatchesNaiveOracle(t *testing.T) {
	src := `hop(X,Y) :- link(X,Z), link(Z,Y).
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
		both(X,Y) :- hop(X,Y), tc(X,Y).
		lonely(X,Y) :- tc(X,Y), !hop(X,Y).
		reach(X,N) :- groupby(tc(X,Y), [X], N = count(Y)).`
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c). link(c,a). link(c,d). link(d,e). link(a,e). link(e,e).`)
	prog, err := parser.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	link := make(refRel)
	for _, row := range db.Rows("link") {
		link.add(row.Tuple, row.Count)
	}
	m, err := reference(prog, map[string]refRel{"link": link}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []ivm.Strategy{ivm.Auto, ivm.DRed, ivm.Recompute} {
		v, err := db.Materialize(src, ivm.WithStrategy(strategy))
		if err != nil {
			t.Fatal(err)
		}
		for pred := range prog.DerivedPreds() {
			want := refRows(m.rels[pred])
			for i := range want {
				if strategy == ivm.DRed {
					want[i].Count = 1
				}
			}
			if got := v.Rows(pred); len(want) == 0 || !sameRows(want, got, true) {
				t.Errorf("%v: %s holds\n%v\nthe reference\n%v", strategy, pred, got, want)
			}
		}
	}
}

// FuzzOracle runs the oracle on any seed. Its corpus holds the first seeds
// past the budget to catch a fixed bug (EXPERIMENTS.md E34): the PF
// baseline leaving a refused apply's earlier passes applied (the baseline
// is no longer a strategy; TestPFRefusedApplyRollsBackEarlierPasses in
// internal/baseline/pf guards it now), a re-derived record deduped against
// its own key, and an update giving a base relation another arity than
// the rules read it at.
func FuzzOracle(f *testing.F) {
	for _, seed := range []int64{106, 921, 5613} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runOracle(t, seed, nil) })
}

// TestRuleEditCountsTheGroupRowsItBuilds runs the seeds that found an
// edit's heads undercounted (EXPERIMENTS.md E43): arithmetic's last extra
// makes cost recursive under auto/set, so the edit evaluates its strata
// afresh, and the group tables it builds over cost made mch's and spend's
// new rows without counting them in eval_heads_built_total.
func TestRuleEditCountsTheGroupRowsItBuilds(t *testing.T) {
	for _, seed := range []int64{72, 422, 432, 662, 762, 1062, 1112, 1292, 2192, 2642, 2702} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			runOracle(t, seed, nil)
		})
	}
}

// runOracleCase runs the oracle on the first n seeds past the budget whose
// configuration want accepts, and fails if they reach none of axes: which
// seeds run is the draw's alone, never what earlier seeds happened to
// cover, so a seed-named subtest cannot silently drop out. The tests below
// are such selections, named for what the hand-written suites the oracle
// replaced checked. A run shares nothing with another, so they run in
// parallel.
func runOracleCase(t *testing.T, n int, want func(oracleConfig) bool, axes ...string) {
	t.Helper()
	t.Parallel()
	cov := make(map[string]int)
	for seed := int64(oracleBudget + 1); n > 0 && seed < 1e5; seed++ {
		if c, _ := oracleDraw(seed); want(c) {
			t.Run(fmt.Sprint(seed), func(t *testing.T) { runOracle(t, seed, cov) })
			n--
		}
	}
	for _, axis := range axes {
		if cov[axis] == 0 && !t.Failed() {
			t.Errorf("no seed reaches %s (reached %v)", axis, cov)
		}
	}
}

func on(leg string, families ...string) func(oracleConfig) bool {
	return func(c oracleConfig) bool {
		return c.leg == leg && (families == nil || slices.Contains(families, c.fam.name))
	}
}

func TestPropertyStrategiesAgree(t *testing.T) {
	for _, fams := range [][]string{{"join"}, {"negation"}, {"aggregation", "arithmetic", "values"}, {"recursion"}, {"recursion-negation"}} {
		t.Run(fams[0], func(t *testing.T) { runOracleCase(t, 1, on("memory", fams...)) })
	}
}

func TestPropertyCountsAreTrueDerivationCounts(t *testing.T) {
	runOracleCase(t, 2, func(c oracleConfig) bool {
		return c.sem == ivm.DuplicateSemantics && !c.fam.recursive && (c.strategy == ivm.Counting || c.strategy == ivm.Recompute)
	}, "semantics:duplicate")
}

func TestPropertyRuleChangesAgreeWithRematerialize(t *testing.T) {
	runOracleCase(t, 5, func(c oracleConfig) bool { return c.strategy == ivm.DRed && on("fold")(c) && len(c.fam.extras) > 0 },
		"edits>10", "edit:emptied")
}

// TestRuleEditsOnCountingStrata is the same under counting and auto, whose
// nonrecursive strata take an edit's derivation counts.
func TestRuleEditsOnCountingStrata(t *testing.T) {
	runOracleCase(t, 3, func(c oracleConfig) bool {
		return (c.strategy == ivm.Counting || c.strategy == ivm.Auto) && on("fold")(c) && len(c.fam.extras) > 0
	}, "edits>10", "edit:emptied")
}

// TestFoldEqualsRederive: a node folding the records or re-deriving the
// scripts, promoted half way, under each configuration a ReplicaState
// carries; the name ends in the family kind.
func TestFoldEqualsRederive(t *testing.T) {
	set, dup := ivm.SetSemantics, ivm.DuplicateSemantics
	for name, cfg := range map[string]struct {
		strategy ivm.Strategy
		sem      ivm.Semantics
	}{"counting/set": {ivm.Counting, set}, "counting/duplicate": {ivm.Counting, dup},
		"recompute/set": {ivm.Recompute, set}, "recompute/duplicate": {ivm.Recompute, dup}, "dred/set": {ivm.DRed, set},
		"dred/set/recursive": {ivm.DRed, set}, "recompute/set/recursive": {ivm.Recompute, set},
		"counting/set/sql-hidden": {ivm.Counting, set}, "counting/duplicate/sql-hidden": {ivm.Counting, dup}} {
		t.Run(name, func(t *testing.T) {
			runOracleCase(t, 1, func(c oracleConfig) bool {
				return c.strategy == cfg.strategy && c.sem == cfg.sem && (c.leg == "fold" || c.leg == "rederive") &&
					c.fam.sql == strings.HasSuffix(name, "sql-hidden") && c.fam.recursive == strings.HasSuffix(name, "recursive")
			}, "promoted")
		})
	}
}

func TestFoldRefusesWithNothingApplied(t *testing.T) {
	runOracleCase(t, 1, on("fold"), "foreign-records")
}

func TestApplyIdempotentDedups(t *testing.T) { runOracleCase(t, 2, on("memory"), "retry:dedup") }

func TestApplyIdempotentEmptyKeyIsPlainApply(t *testing.T) {
	runOracleCase(t, 1, on("rederive"), "empty-key")
}

func TestApplyIdempotentKeyTooLong(t *testing.T) {
	runOracleCase(t, 5, on("fold"), "rejected:long-key")
}

func TestApplyIdempotentErrorNotCached(t *testing.T) { runOracleCase(t, 1, on("store"), "refused-key") }

func TestApplyIdempotentConcurrentSameKey(t *testing.T) {
	runOracleCase(t, 1, func(c oracleConfig) bool { return on("memory")(c) && c.window == 2 }, "same-key")
}

// TestIdempotencyWindowEviction runs the first six seeds of a two-commit
// history: a key ages out two commits after its own, keyed or not, and a
// retry of it re-applies.
func TestIdempotencyWindowEviction(t *testing.T) {
	runOracleCase(t, 6, func(c oracleConfig) bool { return c.window == 2 }, "retry:evicted")
}

func TestIdempotencyWindowSurvivesRecovery(t *testing.T) {
	runOracleCase(t, 1, on("store"), "reopened")
}

func TestReopenUnderOtherOptions(t *testing.T) {
	runOracleCase(t, 2, func(c oracleConfig) bool { return on("store")(c) && c.strategy != ivm.Recompute }, "reopened-elsewhere")
}

func TestFullStackRandomizedAgainstRecompute(t *testing.T) {
	runOracleCase(t, 2, func(c oracleConfig) bool { return c.fam.name == "road-rail" })
}

func TestRecoveryEqualsFollower(t *testing.T) {
	t.Run("counting", func(t *testing.T) {
		runOracleCase(t, 1, func(c oracleConfig) bool {
			return c.strategy == ivm.Counting && on("follower", "join", "negation", "values")(c)
		})
	})
	t.Run("dred", func(t *testing.T) {
		runOracleCase(t, 1, func(c oracleConfig) bool {
			return c.strategy == ivm.DRed && on("follower", "recursion", "pqrw")(c)
		}, "edit:emptied")
	})
}

// sameRows reports whether got holds want's tuples, in order, and their
// counts too when counts is set: this package's one row comparison.
func sameRows(want, got []ivm.Row, counts bool) bool {
	return slices.EqualFunc(want, got, func(a, b ivm.Row) bool {
		return a.Tuple.Equal(b.Tuple) && (!counts || a.Count == b.Count)
	})
}

// oracleState is the model at one version: the base multiset, the rules,
// and their recomputation — every predicate's rows as the views must
// store them.
type oracleState struct {
	base    map[string]map[string]ivm.Row // predicate → tuple key → row
	rules   []string
	prog    *datalog.Program
	derived map[string]bool
	model   *refModel
	want    map[string][]ivm.Row
}

// oracleChange is one signed tuple of an update.
type oracleChange struct {
	pred string
	t    ivm.Tuple
	n    int64
}

func oracleUpdate(ch []oracleChange) *ivm.Update {
	u := ivm.NewUpdate()
	for _, c := range ch {
		u.InsertTuple(c.pred, c.t, c.n)
	}
	return u
}

// oracleOp is one operation: an update, keyed (ApplyIdempotent, whose key
// may be "" or too long) or not, or a rule edit.
type oracleOp struct {
	what   string
	ch     []oracleChange
	keyed  bool
	key    string
	edit   bool
	add    string // AddRule's rule; RemoveRule(remove) when empty
	remove int
	wal    bool // the WAL's writes fail while it runs
}

func (op *oracleOp) run(v *ivm.Views) (cs *ivm.ChangeSet, deduped bool, err error) {
	switch {
	case op.edit && op.add != "":
		cs, err = v.AddRule(op.add)
	case op.edit:
		cs, err = v.RemoveRule(op.remove)
	case op.keyed:
		return v.ApplyIdempotent(op.key, oracleUpdate(op.ch))
	default:
		cs, err = v.Apply(oracleUpdate(op.ch))
	}
	return cs, false, err
}

// oracleCommit is a logged commit as a history holds it: its version and
// the keys its record carries.
type oracleCommit struct {
	ver  uint64
	keys []string
}

// oracleRun is one seed's run: the draw, the views under test and the
// model they are held to.
type oracleRun struct {
	t                  *testing.T
	seed               int64
	rng                *rand.Rand
	cov                map[string]int
	fam                *oracleFamily
	leg, dir           string
	strategy           ivm.Strategy // as the views are configured
	sem                ivm.Semantics
	growing            bool // edits add extras
	walLost            bool // a record was not logged: the store is not reopened
	window, seq, edits int  // seq names keys and fresh nodes
	hidden, basePred   []string
	fixed              map[string]bool // the family's facts
	arity              map[string]int  // fixed by rows once held
	w, node            *ivm.Views      // w takes the writes; node folds its records until promoted
	probe, foldRows    int64           // node's eval_join_probes_total when it was built; the Δ rows it folded
	folds              int
	srv                *server.Server
	rep                *replica.Replica
	mu                 sync.Mutex
	stratum            int    // where maintenance is, as the tracer saw it
	rule               string //
	events             []ivm.CommitEvent
	pending            map[uint64]ivm.CommitEvent
	changes            map[uint64]*ivm.ChangeSet // the writer's change sets, read late (unread)
	refolded           map[uint64]string         // the follower's, rendered
	unread             []func()                  // checks of change sets, run once the next operation has applied
	st                 *oracleState
	memo               map[string]oracleMemo // recompute's states, by base and rules
	version            uint64
	log                []oracleCommit // every logged commit since open, in version order
	acked              map[string][]oracleChange
	dedupLo, dedupHi   int64 // sched_idem_dedup_total lies between
	failKey            string
	added              []int // rule indexes of the extras added
}

func (r *oracleRun) hit(axis string) {
	if r.cov != nil {
		r.cov[axis]++
	}
}

func (r *oracleRun) storeLeg() bool { return r.leg == "store" || r.leg == "follower" }

// oracleConfig is what a seed draws before its stream. Families and
// strategies go round, so that any run of seeds spreads over all of them;
// the leg, the semantics and the window are drawn.
type oracleConfig struct {
	fam      *oracleFamily
	strategy ivm.Strategy
	leg      string
	sem      ivm.Semantics
	window   int
}

func oracleDraw(seed int64) (oracleConfig, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	n, k := int64(len(oracleFamilies)), int64(len(oracleStrategies))
	c := oracleConfig{fam: &oracleFamilies[(seed%n+n)%n], strategy: oracleStrategies[((seed+seed/n)%k+k)%k],
		leg: []string{"memory", "fold", "rederive", "store"}[rng.Intn(4)], sem: ivm.SetSemantics, window: ivm.DefaultHistory}
	if rng.Intn(12) == 0 {
		c.leg = "follower"
	}
	if rng.Intn(3) == 0 {
		c.sem = ivm.DuplicateSemantics
	}
	if rng.Intn(3) == 0 {
		c.window = 2
	}
	return c, rng
}

// runOracle draws seed's configuration and stream and checks every step.
func runOracle(t *testing.T, seed int64, cov map[string]int) {
	c, rng := oracleDraw(seed)
	r := &oracleRun{t: t, seed: seed, rng: rng, cov: cov, fixed: make(map[string]bool), arity: make(map[string]int),
		pending: make(map[uint64]ivm.CommitEvent), changes: make(map[uint64]*ivm.ChangeSet),
		refolded: make(map[uint64]string), acked: make(map[string][]oracleChange)}
	defer r.crash()
	strategy := c.strategy
	r.fam, r.leg, r.sem, r.window = c.fam, c.leg, c.sem, c.window
	r.hit("strategy:" + strategy.String())
	if r.window == 2 {
		r.hit("window:2")
	}
	r.hit("family:" + r.fam.name)
	r.hit("leg:" + r.leg)
	r.basePred = oracleKeys(r.fam.cols)

	// The base: the family's facts and a dozen drawn ones.
	base := make(map[string]map[string]ivm.Row)
	db := ivm.NewDatabase()
	db.MustLoad(r.fam.facts)
	for _, pred := range r.basePred {
		for _, row := range db.Rows(pred) {
			r.fixed[pred+" "+row.Tuple.Key()] = true
			oracleAdd(base, pred, row.Tuple, 1)
		}
	}
	for i := 0; i < 12 && !r.fam.sql; i++ {
		pred := r.basePred[rng.Intn(len(r.basePred))]
		if t := r.draw(pred); r.sem == ivm.DuplicateSemantics || base[pred][t.Key()].Count == 0 {
			oracleAdd(base, pred, t, 1)
		}
	}

	// What no engine maintains is refused; the seed goes on under auto and
	// set semantics.
	resolved := strategy
	if resolved == ivm.Auto {
		resolved = map[bool]ivm.Strategy{false: ivm.Counting, true: ivm.DRed}[r.fam.recursive]
	}
	refused := r.sem == ivm.DuplicateSemantics && (r.fam.recursive || resolved == ivm.DRed) ||
		resolved == ivm.Counting && r.fam.recursive
	if err := r.open(base, strategy); refused != (err != nil) {
		r.fatal("materialize under %v: err = %v, want refused = %v", strategy, err, refused)
	}
	if refused {
		r.hit("refused:materialize")
		r.sem = ivm.SetSemantics
		for _, rows := range base {
			for k, row := range rows {
				rows[k] = ivm.Row{Tuple: row.Tuple, Count: 1}
			}
		}
		if err := r.open(base, ivm.Auto); err != nil {
			r.fatal("materialize: %v", err)
		}
	}
	r.hit("semantics:" + r.sem.String())
	r.run()
}

func oracleDB(base map[string]map[string]ivm.Row) *ivm.Database {
	db := ivm.NewDatabase()
	for pred, rows := range base {
		for _, row := range rows {
			db.InsertTuple(pred, row.Tuple, row.Count)
		}
	}
	return db
}

// oracleAdd adds n copies of t to base's pred.
func oracleAdd(base map[string]map[string]ivm.Row, pred string, t ivm.Tuple, n int64) {
	if base[pred] == nil {
		base[pred] = make(map[string]ivm.Row)
	}
	k := t.Key()
	if row := base[pred][k]; row.Count+n == 0 {
		delete(base[pred], k)
	} else {
		base[pred][k] = ivm.Row{Tuple: t, Count: row.Count + n}
	}
}

// options are the views' configuration, and what a reopened store is
// opened with; extra is what a node built from a ReplicaState needs
// besides the strategy and semantics the state names.
func (r *oracleRun) options(strategy ivm.Strategy) []ivm.Option {
	// The tracer keeps where maintenance is, for a panic to name; do
	// starts it over.
	trace := &ivm.FuncTracer{
		OnStratumDone:   func(n int, _ time.Duration) { r.mu.Lock(); r.stratum = n + 1; r.mu.Unlock() },
		OnRuleEvaluated: func(rule string, _ int) { r.mu.Lock(); r.rule = rule; r.mu.Unlock() },
	}
	return append(r.extra(), ivm.WithStrategy(strategy), ivm.WithSemantics(r.sem), ivm.WithTracer(trace))
}

func (r *oracleRun) extra() []ivm.Option {
	return []ivm.Option{ivm.WithHistory(r.window)}
}

// open builds the leg's views over base and checks them.
func (r *oracleRun) open(base map[string]map[string]ivm.Row, strategy ivm.Strategy) error {
	r.memo = make(map[string]oracleMemo)
	opts := r.options(strategy)
	materialize := func() (*ivm.Views, error) {
		if r.fam.sql {
			return ivm.NewDatabase().MaterializeSQL(r.fam.program, opts...)
		}
		return oracleDB(base).Materialize(r.fam.program, opts...)
	}
	var v *ivm.Views
	var err error
	if r.storeLeg() {
		r.dir = r.t.TempDir()
		v, _, err = ivm.OpenStore(r.dir, materialize, opts...)
	} else {
		v, err = materialize()
	}
	if err != nil {
		return err
	}
	r.w, r.version, r.strategy = v, v.Snapshot().Version(), strategy
	r.hidden = v.Snapshot().ReplicaState().Hidden
	r.log = nil
	var rules []string
	for _, rule := range v.Program().Rules {
		rules = append(rules, rule.String())
	}
	if r.fam.sql { // the base is the script's INSERT
		base = map[string]map[string]ivm.Row{"link": {}}
		for _, row := range v.Rows("link") {
			oracleAdd(base, "link", row.Tuple, row.Count)
		}
	}
	if r.st, err = r.recompute(base, rules); err != nil {
		r.fatal("the recomputation refuses the initial state: %v", err)
	}
	r.learn(r.st)
	r.watch(v)
	r.check("materialized", v)
	switch r.leg {
	case "fold", "rederive":
		r.startNode()
	case "follower":
		r.startFollower()
	}
	return nil
}

// watch subscribes to v's change sets, and takes each commit's record
// from v's history as it lands: the newest entry, so never shed.
func (r *oracleRun) watch(v *ivm.Views) {
	h := v.History()
	v.OnCommit(func(cs *ivm.ChangeSet) {
		ev, ok := h.At(cs.Version())
		r.mu.Lock()
		defer r.mu.Unlock()
		if ok {
			r.events = append(r.events, ev)
		}
		r.changes[cs.Version()] = cs
	})
}

// renderChanges is a change set as a subscriber sees it.
func renderChanges(cs *ivm.ChangeSet) string {
	var sb strings.Builder
	cs.Each(func(pred string, ins, del []ivm.Row) { fmt.Fprintf(&sb, "%s +%v -%v\n", pred, ins, del) })
	return sb.String()
}

// draw is a tuple of pred from the value domain.
func (r *oracleRun) draw(pred string) ivm.Tuple {
	cols := r.fam.cols[pred]
	vals := make([]any, len(cols))
	for i, kind := range cols {
		switch kind {
		case 'n', 'm':
			vals[i] = fmt.Sprintf("n%d", r.rng.Intn(map[rune]int{'n': 6, 'm': 3}[kind]))
		case 'w':
			vals[i] = int64(1 + r.rng.Intn(6))
		case 'v':
			if vals[i] = oracleOdd[r.rng.Intn(len(oracleOdd))]; r.leg == "memory" && r.rng.Intn(8) == 0 {
				vals[i] = math.NaN()
			}
		case 's':
			vals[i] = oracleSummable[r.rng.Intn(len(oracleSummable))]
		}
	}
	return ivm.T(vals...)
}

// fresh is a tuple of pred no state has held: a new node in column 0.
func (r *oracleRun) fresh(pred string) ivm.Tuple {
	t := slices.Clone(r.draw(pred))
	r.seq++
	t[0] = ivm.Str(fmt.Sprintf("f%d", r.seq))
	return t
}

// recompute is the model over base and rules; an error is what the views
// must refuse. A state asked for again, as a refused op's is, is not
// recomputed.
func (r *oracleRun) recompute(base map[string]map[string]ivm.Row, rules []string) (*oracleState, error) {
	var b strings.Builder
	for _, pred := range oracleKeys(base) {
		for _, k := range oracleKeys(base[pred]) {
			fmt.Fprintf(&b, "%s %s %d\n", pred, k, base[pred][k].Count)
		}
	}
	key := strings.Join(rules, "\n") + "\n\n" + b.String()
	if m, ok := r.memo[key]; ok {
		return m.s, m.err
	}
	s, err := r.recomputeOnce(base, rules)
	r.memo[key] = oracleMemo{s, err}
	return s, err
}

type oracleMemo struct {
	s   *oracleState
	err error
}

func (r *oracleRun) recomputeOnce(base map[string]map[string]ivm.Row, rules []string) (*oracleState, error) {
	prog, err := parser.ParseRules(strings.Join(rules, "\n"))
	if err != nil {
		return nil, err
	}
	in := make(map[string]refRel)
	for pred, rows := range base {
		in[pred] = make(refRel)
		for k, row := range rows {
			in[pred][k] = refRow{row.Tuple, row.Count}
		}
	}
	s := &oracleState{base: base, rules: rules, prog: prog, derived: prog.DerivedPreds(), want: make(map[string][]ivm.Row)}
	if s.model, err = reference(prog, in, r.sem == ivm.DuplicateSemantics); err != nil {
		return nil, err
	}
	for pred := range s.derived {
		s.want[pred] = r.norm(s, pred, refRows(s.model.rels[pred]))
	}
	for pred, rows := range base {
		for _, row := range rows {
			s.want[pred] = append(s.want[pred], row)
		}
		slices.SortFunc(s.want[pred], func(a, b ivm.Row) int { return a.Tuple.Compare(b.Tuple) })
	}
	return s, nil
}

// refRows is rel's rows as the views list them.
func refRows(rel refRel) []ivm.Row {
	var rows []ivm.Row
	for _, row := range rel.sorted() {
		rows = append(rows, ivm.Row{Tuple: row.t, Count: row.n})
	}
	return rows
}

// learn notes the arities the views now know from rows: a relation keeps
// the arity of the first row it held.
func (r *oracleRun) learn(s *oracleState) {
	for pred, rows := range s.base {
		for _, row := range rows {
			r.arity[pred] = len(row.Tuple)
		}
	}
}

// reads reports whether a rule of the program reads pred.
func (r *oracleRun) reads(pred string) bool {
	for _, rule := range r.st.prog.Rules {
		for _, l := range rule.Body {
			if l.Pred() == pred {
				return true
			}
		}
	}
	return false
}

// arityOf is pred's arity as the views know it — the program's rules read
// it at one, or it held rows — and whether they do.
func (r *oracleRun) arityOf(pred string) (int, bool) {
	for _, rule := range r.st.prog.Rules {
		for _, l := range rule.Body {
			if l.Kind == datalog.LitAggregate {
				l.Atom = l.Agg.Inner
			}
			if l.Kind != datalog.LitCondition && l.Atom.Pred == pred {
				return len(l.Atom.Args), true
			}
		}
	}
	arity, known := r.arity[pred]
	return arity, known
}

// norm is rows as the views store them: DRed keeps every derived tuple
// once. Auto, whose nonrecursive strata count and recursive ones run
// DRed, stores what the recomputation does, stratum by stratum.
func (r *oracleRun) norm(s *oracleState, pred string, rows []ivm.Row) []ivm.Row {
	if !s.derived[pred] || r.strategy != ivm.DRed {
		return rows
	}
	out := make([]ivm.Row, len(rows))
	for i, row := range rows {
		out[i] = ivm.Row{Tuple: row.Tuple, Count: 1}
	}
	return out
}

// oracleMismatch is one predicate the views got wrong.
type oracleMismatch struct{ pred, msg string }

// fail reports the mismatch of the lowest stratum, with its rules.
func (r *oracleRun) fail(what string, bad []oracleMismatch) {
	r.t.Helper()
	if len(bad) == 0 {
		return
	}
	sn := func(m oracleMismatch) int { return r.st.model.level[m.pred] }
	m := slices.MinFunc(bad, func(a, b oracleMismatch) int { return cmp.Or(sn(a)-sn(b), strings.Compare(a.pred, b.pred)) })
	var rules []string
	for _, rule := range r.st.prog.Rules {
		if r.st.model.level[rule.Head.Pred] == sn(m) {
			rules = append(rules, rule.String())
		}
	}
	r.fatal("%s: stratum %d [%s]: %s", what, sn(m), cmp.Or(strings.Join(rules, " "), "base"), m.msg)
}

// fatal stops the run, naming it.
func (r *oracleRun) fatal(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d leg %s (%v/%v, %s) version %d: %s",
		r.seed, r.leg, r.strategy, r.sem, r.fam.name, r.version, fmt.Sprintf(format, args...))
}

// crash names the run a panic stopped; a panic inside the views can leave
// them locked, so it is not recovered from.
func (r *oracleRun) crash() {
	if p := recover(); p != nil {
		r.mu.Lock()
		fmt.Fprintf(os.Stderr, "seed %d leg %s (%v/%v, %s) version %d: stratum %d [after %s]: panic: %v\n",
			r.seed, r.leg, r.strategy, r.sem, r.fam.name, r.version, r.stratum, r.rule, p)
		r.mu.Unlock()
		panic(p)
	}
}

// check holds v to the model: version, trace, program, and every
// predicate's rows and counts.
func (r *oracleRun) check(what string, v *ivm.Views) {
	if got := v.Snapshot().Version(); got != r.version {
		r.fatal("%s: the views publish version %d", what, got)
	}
	if got := v.Trace().Version; got != r.version {
		r.fatal("%s: the trace of version %d is stamped %d", what, r.version, got)
	}
	if got, want := v.Program().String(), r.st.prog.String(); got != want || ivm.EngineRules(v) != len(r.st.prog.Rules) {
		r.fatal("%s: the program is\n%s\nwant\n%s\nand the engine's has %d rules", what, got, want, ivm.EngineRules(v))
	}
	var bad []oracleMismatch
	for _, pred := range append(oracleKeys(r.st.want), v.Snapshot().Preds()...) {
		got, want := v.Rows(pred), r.st.want[pred]
		if !sameRows(want, r.norm(r.st, pred, got), true) || slices.ContainsFunc(got, func(row ivm.Row) bool { return row.Count <= 0 }) {
			bad = append(bad, oracleMismatch{pred, fmt.Sprintf("%s holds\n%v\nthe recomputation\n%v", pred, got, want)})
		}
	}
	r.fail(what, bad)
}

// oracleDelta is a signed change per predicate and tuple key.
type oracleDelta map[[2]string]int64

func (d oracleDelta) add(pred, key string, n int64) {
	k := [2]string{pred, key}
	if d[k] += n; d[k] == 0 {
		delete(d, k)
	}
}

// diff is after − before over the predicates keep admits, by count or,
// when presence is set, by whether a tuple is stored.
func diff(before, after map[string][]ivm.Row, keep func(string) bool, presence bool) oracleDelta {
	d := make(oracleDelta)
	for sign, rows := range map[int64]map[string][]ivm.Row{-1: before, 1: after} {
		for pred, rs := range rows {
			for _, row := range rs {
				if n := row.Count; keep(pred) {
					if presence {
						n = 1
					}
					d.add(pred, row.Tuple.Key(), sign*n)
				}
			}
		}
	}
	return d
}

// compare reports where a change set's or a record's Δ differs from the
// recomputations'.
func (d oracleDelta) compare(what string, want oracleDelta) (bad []oracleMismatch) {
	for _, m := range []oracleDelta{d, want} {
		for k := range m {
			if d[k] != want[k] {
				bad = append(bad, oracleMismatch{k[0], fmt.Sprintf("Δ(%s) of the %s moves %s by %d, the recomputations by %d",
					k[0], what, k[1], d[k], want[k])})
			}
		}
	}
	return bad
}

// recordDelta reads a commit record's Δ, and the bytes its rows take.
func (r *oracleRun) recordDelta(rec ivm.CommitRecord) (d oracleDelta, size int) {
	d = make(oracleDelta)
	for rd := rec.Deltas(); ; {
		pred, _, n, err := rd.Next()
		if err == io.EOF {
			return d, size
		}
		size += 8 + len(pred)
		for i := 0; i < n && err == nil; i++ {
			var c int64
			var key []byte
			if c, key, err = rd.Row(); err == nil {
				d.add(pred, string(key), c)
				size += 1 + len(key)
			}
		}
		if err != nil {
			r.fatal("record %d: %v", rec.Version, err)
		}
	}
}

// next is the model's state after op, or why the views must refuse it.
func (r *oracleRun) next(op *oracleOp) (*oracleState, error) {
	base, rules := r.st.base, r.st.rules
	switch {
	case op.edit && op.add != "":
		rules = append(slices.Clip(rules), op.add)
		if err := r.fits(op.add); err != nil {
			return nil, err
		}
	case op.edit:
		rules = slices.Delete(slices.Clone(rules), op.remove, op.remove+1)
	case op.keyed && len(op.key) > ivm.MaxIdempotencyKeyLen:
		return nil, errors.New("the key is too long")
	default:
		base = maps.Clone(base)
		for _, c := range op.ch {
			base[c.pred] = maps.Clone(base[c.pred])
		}
		for _, c := range op.ch {
			arity, known := r.arityOf(c.pred)
			switch n := base[c.pred][c.t.Key()].Count + c.n; {
			case known && arity != len(c.t):
				return nil, fmt.Errorf("%s%v has the wrong arity", c.pred, c.t)
			case slices.ContainsFunc(c.t, func(v ivm.Value) bool {
				return r.storeLeg() && v.Kind() == value.Float && (math.IsNaN(v.Float()) || math.IsInf(v.Float(), 0))
			}):
				return nil, fmt.Errorf("%s%v is not finite", c.pred, c.t)
			case n < 0:
				return nil, fmt.Errorf("%s%v is absent", c.pred, c.t)
			case n <= 1 || r.sem == ivm.DuplicateSemantics:
				oracleAdd(base, c.pred, c.t, c.n)
			}
		}
	}
	s, err := r.recompute(base, rules)
	if err == nil && op.edit && r.strategy == ivm.Counting && slices.ContainsFunc(s.prog.Rules, func(rule datalog.Rule) bool {
		return s.model.recursive[rule.Head.Pred]
	}) {
		return nil, errors.New("counting maintains no recursive stratum")
	}
	return s, err
}

// fits says why the views refuse rule, which reads a relation holding rows
// at another arity.
func (r *oracleRun) fits(rule string) error {
	prog, err := parser.ParseRules(rule)
	if err != nil {
		return nil // the recomputation refuses it
	}
	for _, l := range prog.Rules[0].Body {
		if l.Kind == datalog.LitAggregate {
			l.Atom = l.Agg.Inner
		}
		for _, row := range r.st.base[l.Atom.Pred] {
			if l.Kind != datalog.LitCondition && len(row.Tuple) != len(l.Atom.Args) {
				return fmt.Errorf("%s holds rows of arity %d", l.Atom.Pred, len(row.Tuple))
			}
		}
	}
	return nil
}

// mayRefuse says why the views may refuse an update whose result the
// recomputation accepts: delta rules join what it inserts with what it
// deletes, so an operand error in a derivation the update both makes and
// cancels is the engine's to raise. Such a derivation is one of the
// recomputation over the base with the insertions and not the deletions
// (through a negation it may be neither: the generator keeps a string in
// a stored group out of mixed updates).
func (r *oracleRun) mayRefuse(op *oracleOp) error {
	ins := slices.DeleteFunc(slices.Clone(op.ch), func(c oracleChange) bool { return c.n < 0 })
	if op.edit || len(ins) == len(op.ch) {
		return nil
	}
	_, err := r.next(&oracleOp{ch: ins})
	return err
}

// commit moves the model to version ver and state next, holding the
// change sets the version's callers got and the record it cut to the
// diff of the recomputations. logged is false when the record's WAL
// write failed: then no record is announced and no key recorded.
func (r *oracleRun) commit(ver uint64, next *oracleState, css []*ivm.ChangeSet, keys, scripts []string, edit, logged bool) {
	if ver != r.version+1 {
		r.fatal("a commit published version %d", ver)
	}
	prev := r.st
	r.version, r.st = ver, next
	r.learn(next)
	if !edit && extremumDeleted(prev, next) {
		r.hit("extremum:deleted")
	}
	if edit { // an empty relation takes the arity the rules read it at
		for pred := range r.arity {
			if n, read := r.arityOf(pred); read && len(next.base[pred]) == 0 && n != r.arity[pred] {
				r.arity[pred] = n
				r.hit("edit:arity-reset")
			}
		}
	}
	// A change set speaks of the views the commit leaves: a predicate an
	// edit stops deriving drains in the record only.
	visible := func(pred string) bool { return next.derived[pred] && !slices.Contains(r.hidden, pred) }
	want := diff(prev.want, next.want, visible, r.sem == ivm.SetSemantics)
	for _, cs := range css {
		if cs.Version() != ver {
			r.fatal("a caller of version %d was told %d", ver, cs.Version())
		}
	}
	// A change set is read only once the next operation has applied: what
	// a caller was given must not move with the engine's later work.
	r.unread = append(r.unread, func() {
		var bad []oracleMismatch
		for _, cs := range css {
			got := make(oracleDelta)
			for _, pred := range cs.Preds() {
				for _, row := range cs.Delta(pred) {
					got.add(pred, row.Tuple.Key(), row.Count)
				}
			}
			bad = append(bad, got.compare("change set", want)...)
		}
		r.fail(fmt.Sprintf("commit of version %d, read after the next", ver), bad)
	})
	r.takeEvents()
	ev, ok := r.pending[ver]
	if delete(r.pending, ver); ok != logged {
		r.fatal("version %d announced a record: %v", ver, ok)
	}
	if !logged {
		return
	}
	// The history holds the ChangeSet the commit's handlers were handed, so
	// a subscription resumed from before it reads those rows: watch took
	// the entry as the newest, which is never shed.
	r.mu.Lock()
	handed := r.changes[ver]
	r.mu.Unlock()
	if ev.Changes != handed {
		r.fatal("the history holds version %d's ChangeSet as %v, its handlers were handed %v", ver, ev.Changes, handed)
	}
	// The writer maintained the commit: its trace is the record's, with
	// a record of each stratum of the program it leaves.
	levels := make(map[int]bool)
	for _, n := range next.model.level {
		levels[n] = true
	}
	tr, last := ev.Trace, 0
	traced := tr.Version == ver && slices.Equal(tr.Keys, ev.Keys) && len(tr.Strata) == len(levels)
	for _, st := range tr.Strata {
		traced, last = traced && levels[st.Stratum] && st.Stratum > last, st.Stratum
	}
	if !traced {
		r.fatal("version %d with keys %q and %d strata is traced as %+v", ver, ev.Keys, len(levels), tr)
	}
	got, size := r.recordDelta(ev.CommitRecord)
	r.fail("commit", got.compare("record", diff(prev.want, next.want, func(string) bool { return true }, false)))
	evKeys := slices.Clone(ev.Keys)
	slices.Sort(evKeys)
	if slices.Sort(keys); !slices.Equal(evKeys, keys) {
		r.fatal("the record carries keys %q, the callers %q", ev.Keys, keys)
	}
	// An edit's record is its header, program and Δ, never the database.
	if src, ok := ev.Program(); ok != edit || edit && len(ev.Payload) > 16+len(src)+size {
		r.fatal("a record of %d bytes carries a program: %v, a %d-byte Δ", len(ev.Payload), ok, size)
	}
	r.log = append(r.log, oracleCommit{ver, ev.Keys})
	if r.node == nil {
		return
	}
	// The folding node lands where the writer did and reports what it did.
	var cs *ivm.ChangeSet
	var err error
	if r.leg == "rederive" && !edit {
		cs, err = r.node.ApplyScriptReplicated(strings.Join(scripts, ""), ev.Keys)
	} else {
		cs, err = r.node.ApplyCommitRecord(ev.CommitRecord, ev.Trace.Published)
		r.folds, r.foldRows = r.folds+1, r.foldRows+int64(len(got))
	}
	if err != nil || cs.Version() != ver {
		r.fatal("the node folds version %d: err %v, change set %v", ver, err, cs)
	}
	r.unread = append(r.unread, func() {
		r.mu.Lock()
		reported := renderChanges(r.changes[ver])
		r.mu.Unlock()
		if renderChanges(cs) != reported {
			r.fatal("the node folded version %d: change set\n%v\nthe writer's\n%s", ver, cs, reported)
		}
	})
}

// extremumDeleted reports whether a MIN or MAX group of next's program lost
// its extremum from prev to next and still has members: its aggregate
// moved away from the extremum's side.
func extremumDeleted(prev, next *oracleState) bool {
	for _, rule := range next.prog.Rules {
		for _, l := range rule.Body {
			if l.Kind != datalog.LitAggregate || l.Agg.Func != datalog.AggMin && l.Agg.Func != datalog.AggMax {
				continue
			}
			was, _ := prev.model.groupBy(l.Agg, false)
			is, _ := next.model.groupBy(l.Agg, false)
			old := make(map[string]ivm.Value)
			for _, row := range was {
				old[row.t[:len(row.t)-1].Key()] = row.t[len(row.t)-1]
			}
			for _, row := range is {
				n := len(row.t) - 1
				if o, ok := old[row.t[:n].Key()]; ok {
					if c := row.t[n].Compare(o); l.Agg.Func == datalog.AggMin && c > 0 || l.Agg.Func == datalog.AggMax && c < 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// takeEvents moves the records published since the last call to pending.
func (r *oracleRun) takeEvents() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.events {
		r.pending[ev.Version] = ev
	}
	r.events = r.events[:0]
}

// do runs ops on the writer — one after another, or concurrently, when
// the scheduler may coalesce them into shared versions — and holds each
// outcome to the model. Concurrent ops commute (they insert fresh tuples,
// or are one keyed update retried), so a version is the union of the
// updates it acked.
func (r *oracleRun) do(concurrent bool, ops ...*oracleOp) {
	type call struct {
		op             *oracleOp
		ver            uint64 // the version a key in the history was acked at
		next           *oracleState
		refused        error
		dedup, deduped bool
		cs             *ivm.ChangeSet
		err            error
	}
	r.mu.Lock()
	r.stratum, r.rule = 1, ""
	r.mu.Unlock()
	calls := make([]*call, len(ops))
	held := r.remembered()
	for i, op := range ops {
		c := &call{op: op}
		if c.ver, c.dedup = held[op.key]; !c.dedup || !op.keyed {
			c.dedup = false
			c.next, c.refused = r.next(op)
		}
		calls[i] = c
	}
	var borrowed func(*testing.T, string) (int64, int64, int64)
	c0 := calls[0]
	// Heads are maintenance's to borrow: Recompute builds its views anew.
	if !concurrent && !c0.dedup && c0.refused == nil && r.strategy != ivm.Recompute {
		borrowed = watchBorrowing(r.w)
	}
	late := r.unread
	r.unread = nil
	var wg sync.WaitGroup
	for _, c := range calls {
		run := func() {
			if c.op.wal {
				defer walWritesFail(r.t, r.dir)()
			}
			c.cs, c.deduped, c.err = c.op.run(r.w)
		}
		if !concurrent {
			run()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.crash()
			run()
		}()
	}
	wg.Wait()
	for _, check := range late { // queued before these operations applied
		check()
	}
	byVersion := make(map[uint64][]*call)
	applied := make(map[*oracleOp]*call)
	for _, c := range calls {
		if c.err != nil && c.refused == nil && !c.dedup {
			c.refused = r.mayRefuse(c.op)
		}
		if c.err == nil && !c.deduped && !c.dedup {
			applied[c.op] = c
		}
	}
	for _, c := range calls {
		switch op := c.op; {
		case c.dedup:
			if c.err != nil || !c.deduped || c.cs.Version() != c.ver || !c.cs.Empty() {
				r.fatal("%s: a retry of %q answers %v deduped=%v err=%v, want an empty dedup at version %d",
					op.what, op.key, c.cs, c.deduped, c.err, c.ver)
			}
			r.dedupLo++
			r.dedupHi++
		case c.refused != nil && c.err == nil:
			r.fatal("%s: the views accept what the recomputation refuses: %v", op.what, c.refused)
		case c.refused != nil:
			r.hit("rejected:" + op.what)
			if n := ivm.EngineRules(r.w); op.edit && n != len(r.st.prog.Rules) {
				head := r.st.prog.Rules[min(op.remove, len(r.st.prog.Rules)-1)].Head.Pred
				if op.add != "" {
					head = op.add[:strings.IndexByte(op.add, '(')]
				}
				r.fail(op.what, []oracleMismatch{{head, fmt.Sprintf("the refused edit left the engine %d rules, the program has %d", n, len(r.st.prog.Rules))}})
			}
		case op.wal:
			// Published, neither logged nor announced, its key not
			// remembered; what recovery should make of the lost record is
			// open, so the store is not reopened.
			if c.err == nil || !strings.Contains(c.err.Error(), "not durably logged") {
				r.fatal("wal: err = %v, want the update applied but not durably logged", c.err)
			}
			r.hit("rejected:wal")
			r.walLost = true
			r.commit(r.version+1, c.next, nil, nil, nil, false, false)
			var bad []oracleMismatch
			for pred := range r.st.want {
				if engine := ivm.EngineRows(r.w, pred); !sameRows(engine, r.w.Rows(pred), true) {
					bad = append(bad, oracleMismatch{pred, fmt.Sprintf("%s is published as\n%v\nthe engine stores\n%v", pred, r.w.Rows(pred), engine)})
				}
			}
			r.fail("wal", bad)
		case c.err != nil || c.deduped && (applied[op] == nil || !c.cs.Empty() || c.cs.Version() != applied[op].cs.Version()):
			// A caller racing its own key's first apply learns where it
			// landed and nothing else; a history hit counts, a retry
			// inside the batch does not.
			r.fatal("%s: err %v, deduped %v %v; the recomputation accepts it", op.what, c.err, c.deduped, c.cs)
		case c.deduped:
			r.dedupHi++
		default:
			byVersion[c.cs.Version()] = append(byVersion[c.cs.Version()], c)
		}
	}
	for _, ver := range oracleKeys(byVersion) {
		var ch []oracleChange
		var css []*ivm.ChangeSet
		var keys, scripts []string
		next := byVersion[ver][0].next
		for _, c := range byVersion[ver] {
			ch, css = append(ch, c.op.ch...), append(css, c.cs)
			scripts = append(scripts, oracleUpdate(c.op.ch).String())
			if c.op.keyed && c.op.key != "" {
				keys = append(keys, c.op.key)
				r.acked[c.op.key] = c.op.ch
			}
		}
		if len(css) > 1 {
			r.hit("coalesced")
		}
		if concurrent {
			var err error
			if next, err = r.next(&oracleOp{ch: ch}); err != nil {
				r.fatal("the recomputation refuses version %d: %v", ver, err)
			}
		}
		r.commit(ver, next, css, keys, scripts, c0.op.edit, true)
	}
	if r.takeEvents(); len(r.pending) > 0 {
		r.fatal("%s: a record no commit was acked for", c0.op.what)
	}
	if borrowed != nil && len(byVersion) == 1 {
		// Heads are built for new rows only, but for a row that comes back
		// as its base's own; DRed's exactly so, unless an arithmetic head
		// takes its slow path or a group table builds rows.
		exact := r.w.Strategy() == ivm.DRed && !r.fam.arith && !c0.op.edit && !strings.Contains(r.st.prog.String(), "groupby")
		if fresh, lent, built := borrowed(r.t, c0.op.what); built < fresh-lent || exact && built != fresh-lent {
			r.fatal("%s: %d heads built for %d new rows, %d of them their base's own", c0.op.what, built, fresh, lent)
		}
	}
	r.checkAll(c0.op.what)
}

// checkAll holds every views of the leg to the model, and the history's
// metrics to the model's.
func (r *oracleRun) checkAll(what string) {
	r.check(what, r.w)
	m := r.w.Metrics()
	if got, want := m.Gauge("idem_window_entries"), len(r.remembered()); got != int64(want) {
		r.fatal("%s: idem_window_entries %d, the model holds %d keys", what, got, want)
	}
	if got := m.Counter("sched_idem_dedup_total"); got < r.dedupLo || got > r.dedupHi {
		r.fatal("%s: sched_idem_dedup_total %d, want [%d, %d]", what, got, r.dedupLo, r.dedupHi)
	}
	if r.node == nil {
		return
	}
	r.check(what+" (node)", r.node)
	if m := r.node.Metrics(); r.leg == "fold" {
		// A fold probes no index and times every record.
		if got := m.Counter("eval_join_probes_total"); got != r.probe {
			r.fatal("%s: folding probed indexes: eval_join_probes_total %d -> %d", what, r.probe, got)
		}
		if h, rows := m.Histograms["commit_replay_seconds"], m.Counter("commit_replay_rows_total"); h.Count != int64(r.folds) || rows != r.foldRows {
			r.fatal("%s: %d commit_replay_seconds and %d rows for %d folds of %d rows", what, h.Count, rows, r.folds, r.foldRows)
		}
	}
}

// run draws and checks the stream, then the leg's ending.
func (r *oracleRun) run() {
	const ops = 28
	editWeight := 3
	if len(r.fam.extras) > 0 {
		editWeight = 45
	}
	for i := 0; i < ops; i++ {
		if i == ops/2 && r.node != nil {
			r.takeOver("promoted", r.node)
		}
		switch k := r.rng.Intn(70 + editWeight); {
		case k < 30:
			r.apply()
		case k < 39:
			r.burst(k >= 36)
		case k < 45:
			r.retry()
		case k < 70:
			r.reject()
		default:
			r.edit()
		}
		if r.leg == "store" && !r.walLost && r.rng.Intn(10) == 0 {
			r.reopen()
		}
	}
	if r.edits > 10 {
		r.hit("edits>10")
	}
	if r.seed%8 == 7 {
		r.tiers()
	}
	r.finish()
}

// tiers is one apply of 80 fresh tuples of one base predicate and then 32
// applies that each delete one of them, with no rebase between: the
// version chain compacts by size tiers and keeps the large run as a link
// below the small ones it folds (DESIGN.md §10).
func (r *oracleRun) tiers() {
	pred := r.basePred[0]
	big := &oracleOp{what: "tiers"}
	for range 80 {
		big.ch = append(big.ch, oracleChange{pred, r.fresh(pred), 1})
	}
	r.do(false, big)
	for _, c := range big.ch[:32] {
		r.do(false, &oracleOp{what: "tiers", ch: []oracleChange{{pred, c.t, -1}}})
	}
	r.hit("tiers")
}

// draws is n changes: deletions of stored tuples and
// insertions of drawn ones, at most one per tuple.
func (r *oracleRun) draws(n int) []oracleChange {
	var ch []oracleChange
	used := make(map[string]bool)
	for ; n > 0; n-- {
		pred := r.basePred[r.rng.Intn(len(r.basePred))]
		c := oracleChange{pred: pred, t: r.draw(pred), n: 1}
		if rows := r.st.base[pred]; len(rows) > 0 && r.rng.Intn(2) == 0 {
			keys := oracleKeys(rows)
			c.t, c.n = rows[keys[r.rng.Intn(len(keys))]].Tuple, -1
		}
		if k := pred + " " + c.t.Key(); !used[k] && !r.fixed[k] {
			used[k] = true
			ch = append(ch, c)
		}
	}
	return ch
}

// key is a new idempotency key, or the one a refused apply left.
func (r *oracleRun) key() string {
	if k := r.failKey; k != "" {
		r.failKey = ""
		r.hit("refused-key")
		return k
	}
	r.seq++
	return fmt.Sprintf("k%d", r.seq)
}

// apply is a plain, keyed or empty-key apply.
func (r *oracleRun) apply() {
	op := &oracleOp{what: "apply", ch: r.draws(1 + r.rng.Intn(4))}
	switch r.rng.Intn(5) {
	case 0, 1:
		op.keyed, op.key = true, r.key()
	case 2:
		op.keyed = true
		r.hit("empty-key")
	}
	r.do(false, op)
}

// retry re-sends a committed key's update: a dedup while its commit is in
// the history, a fresh apply once it left.
func (r *oracleRun) retry() {
	keys := oracleKeys(r.acked)
	if len(keys) == 0 {
		return
	}
	k := keys[r.rng.Intn(len(keys))]
	if _, ok := r.remembered()[k]; ok {
		r.hit("retry:dedup")
	} else {
		r.hit("retry:evicted")
	}
	r.do(false, &oracleOp{what: "retry", ch: r.acked[k], keyed: true, key: k})
}

// bad is a change the recomputation refuses: what names it. Concurrent
// ones are fresh tuples, so that they are refused in any order; a string
// where a sum or an operand is due lands in a stored group otherwise, so
// that a group table before the failing one has moved.
func (r *oracleRun) bad(concurrent bool) (what string, c oracleChange) {
	pred := r.basePred[r.rng.Intn(len(r.basePred))]
	switch r.rng.Intn(3) {
	case 0:
		return "absent", oracleChange{pred, r.fresh(pred), -1}
	case 1: // at an arity the views know: one no rule reads and no row fixed is any
		if _, known := r.arityOf(pred); known {
			return "arity", oracleChange{pred, append(r.draw(pred), ivm.Str("extra")), 1}
		}
	}
	for _, pred := range r.basePred {
		if i := strings.IndexAny(r.fam.cols[pred], "ws"); i >= 0 {
			t := slices.Clone(r.draw(pred))
			if concurrent || r.fam.cols[pred][i] == 'w' { // an operand: a stored row would fail later updates
				t = r.fresh(pred)
			}
			t[i] = ivm.Str("s")
			return "string", oracleChange{pred, t, 1}
		}
	}
	return "absent", oracleChange{pred, r.fresh(pred), -1}
}

// reject draws an operation to be refused, among good changes.
func (r *oracleRun) reject() {
	switch k := r.rng.Intn(10); {
	case k < 5:
		what, c := r.bad(false)
		ch := r.draws(r.rng.Intn(3))
		if what == "string" { // in a stored group it stands alone: see mayRefuse
			ch = nil
		}
		op := &oracleOp{what: what, ch: slices.Insert(ch, r.rng.Intn(len(ch)+1), c)}
		if r.rng.Intn(2) == 0 {
			op.keyed, op.key = true, r.key()
		}
		if _, refused := r.next(op); refused != nil && op.keyed {
			r.failKey = op.key // the key is not remembered: its next apply is fresh
		}
		r.do(false, op)
	case k == 5:
		r.do(false, &oracleOp{what: "long-key", ch: r.draws(1), keyed: true, key: strings.Repeat("k", ivm.MaxIdempotencyKeyLen+1)})
	case k == 6 && r.storeLeg():
		pred := r.basePred[0]
		t := r.fresh(pred)
		t[len(t)-1] = ivm.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.rng.Intn(3)])
		r.do(false, &oracleOp{what: "non-finite", ch: []oracleChange{{pred, t, 1}}})
	case k == 7 && r.leg == "store" && !r.walLost:
		pred := r.basePred[0]
		r.do(false, &oracleOp{what: "wal", ch: []oracleChange{{pred, r.fresh(pred), 1}}, keyed: true, key: r.key(), wal: true})
	default:
		if r.strategy != ivm.DRed {
			r.badEdit()
			return
		}
		pred := r.basePred[0]
		args := []string{"X"}
		for i := 1; i < r.arity[pred]; i++ {
			args = append(args, fmt.Sprintf("A%d", i))
		}
		body := fmt.Sprintf("%s(%s)", pred, strings.Join(args, ", "))
		head := r.st.prog.Rules[0].Head.Pred
		switch r.rng.Intn(4) {
		case 0:
			r.do(false, &oracleOp{what: "unsafe-rule", edit: true, add: "unsafe(X, Y) :- " + body + "."})
		case 1:
			r.do(false, &oracleOp{what: "rule-arity", edit: true, add: head + "(X, X, X, X) :- " + body + "."})
		case 2: // a non-numeric operand in the seed, when A1 is a node
			r.do(false, &oracleOp{what: "edit-seed", edit: true, add: head + "(X, A1 + 1) :- " + body + "."})
		default:
			r.badEdit()
		}
	}
}

// badEdit is an edit the views must refuse: the removal of the rule the
// family's drain predicate needs (its propagation meets a non-numeric
// operand) or, under any strategy but DRed, a rule reading the smallest
// base relation at another arity:
// refused while the relation holds rows, so a few are deleted first; once
// it is empty, it takes the rule's arity.
func (r *oracleRun) badEdit() {
	i := slices.IndexFunc(r.st.prog.Rules, func(rule datalog.Rule) bool { return rule.Head.Pred == r.fam.drain })
	switch before := r.version; {
	case i >= 0:
		r.do(false, &oracleOp{what: "edit-propagate", edit: true, remove: i})
		for j := range r.added {
			if r.version > before && r.added[j] > i {
				r.added[j]--
			}
		}
	case r.strategy != ivm.DRed:
		// The smallest relation no rule reads, else the smallest.
		pred := slices.MinFunc(r.basePred, func(a, b string) int {
			if r.reads(a) != r.reads(b) {
				return map[bool]int{false: -1, true: 1}[r.reads(a)]
			}
			return len(r.st.base[a]) - len(r.st.base[b])
		})
		if rows := r.st.base[pred]; len(rows) <= 6 {
			var ch []oracleChange
			for _, k := range oracleKeys(rows) {
				if !r.fixed[pred+" "+k] {
					ch = append(ch, oracleChange{pred, rows[k].Tuple, -rows[k].Count})
				}
			}
			if len(ch) > 0 {
				r.do(false, &oracleOp{what: "drain", ch: ch})
			}
		}
		n, _ := r.arityOf(pred)
		args := []string{"X"}
		for i := 0; i < n; i++ {
			args = append(args, fmt.Sprintf("A%d", i))
		}
		r.do(false, &oracleOp{what: "arity-clash", edit: true, add: fmt.Sprintf("clash(X) :- %s(%s).", pred, strings.Join(args, ", "))})
	}
}

// edit adds the family's extras one by one, then takes them back last
// first, and so on.
func (r *oracleRun) edit() {
	if len(r.fam.extras) == 0 || r.fam.drain != "" && r.rng.Intn(4) == 0 {
		r.badEdit()
		return
	}
	before := r.version
	if r.growing = len(r.added) == 0 || r.growing && len(r.added) < len(r.fam.extras); r.growing {
		i := len(r.st.rules)
		r.do(false, &oracleOp{what: "add-rule", edit: true, add: r.fam.extras[len(r.added)]})
		if r.version > before {
			r.added = append(r.added, i)
		}
	} else {
		i := r.added[len(r.added)-1]
		head := r.st.prog.Rules[i].Head.Pred
		holds := len(r.st.want[head]) > 0 && len(r.st.prog.RulesFor(head)) == 1
		r.do(false, &oracleOp{what: "remove-rule", edit: true, remove: i})
		if r.version > before {
			r.added = r.added[:len(r.added)-1]
			if holds {
				r.hit("edit:emptied")
			}
		}
	}
	if r.version > before {
		r.edits++
	}
}

// burst fires concurrent inserts of fresh tuples, keyed or not and one of
// them perhaps refused; with sameKey the callers retry one keyed insert,
// and exactly one of them applies.
func (r *oracleRun) burst(sameKey bool) {
	ops := make([]*oracleOp, 2+r.rng.Intn(4))
	for i := range ops {
		pred := r.basePred[r.rng.Intn(len(r.basePred))]
		ops[i] = &oracleOp{what: "burst", ch: []oracleChange{{pred, r.fresh(pred), 1}}}
		if sameKey && i > 0 {
			ops[i] = ops[0]
		} else if sameKey || r.rng.Intn(2) == 0 {
			ops[i].keyed, ops[i].key = true, r.key()
		}
	}
	if sameKey {
		r.hit("same-key")
	} else if r.rng.Intn(3) == 0 {
		what, c := r.bad(true)
		ops[r.rng.Intn(len(ops))] = &oracleOp{what: what, ch: []oracleChange{c}}
	}
	r.do(true, ops...)
}

// remembered models a history's key index: the keys of the newest
// r.window logged commits, each at its commit's version. A writer's, a
// node's that folded every record, a follower's and a recovered store's
// agree: each committed every logged commit since open — recovery
// replays the WAL, which a run never checkpoints — and a history starts
// no later than the first commit that carries a key.
func (r *oracleRun) remembered() map[string]uint64 {
	held := make(map[string]uint64)
	for _, c := range r.log[max(len(r.log)-r.window, 0):] {
		for _, k := range c.keys {
			held[k] = c.ver
		}
	}
	return held
}

// requireDedups retries every key the model holds on v: each must answer
// as a dedup at its acked version.
func (r *oracleRun) requireDedups(what string, v *ivm.Views) {
	held := r.remembered()
	for _, k := range oracleKeys(held) {
		cs, deduped, err := v.ApplyIdempotent(k, oracleUpdate(r.acked[k]))
		if err != nil || !deduped || cs.Version() != held[k] {
			r.fatal("%s: a retry of %q: deduped=%v err=%v %v, want a dedup at version %d", what, k, deduped, err, cs, held[k])
		}
	}
	if v == r.w {
		r.dedupLo += int64(len(held))
		r.dedupHi += int64(len(held))
	}
}

// takeOver hands the writes to v, which folded every record: a node
// promoted, or a store reopened.
func (r *oracleRun) takeOver(what string, v *ivm.Views) {
	r.hit(what)
	r.w, r.node = v, nil
	r.watch(v)
	r.dedupLo, r.dedupHi = 0, 0
	r.checkAll(what)
}

// reopen kills the store-bound writer without a checkpoint and recovers
// it from the WAL.
func (r *oracleRun) reopen() {
	if err := r.w.Close(); err != nil {
		r.fatal("close: %v", err)
	}
	v, info, err := ivm.OpenStore(r.dir, nil, r.options(r.strategy)...)
	if err != nil {
		r.fatal("reopen: %v", err)
	}
	if info.Epoch != 1 || info.Replayed >= int(r.version) {
		r.fatal("reopen replayed %d records in epoch %d", info.Replayed, info.Epoch)
	}
	r.takeOver("reopened", v)
	r.requireDedups("reopened", v)
	r.checkAll("reopened")
}

// startNode builds the node that folds the writer's records.
func (r *oracleRun) startNode() {
	state := r.w.Snapshot().ReplicaState()
	node, err := ivm.ViewsFromReplicaState(state, r.extra()...)
	if err != nil {
		r.fatal("node: %v", err)
	}
	r.node, r.probe = node, node.Metrics().Counter("eval_join_probes_total")
	if r.leg == "fold" {
		r.foreign(state)
	}
	r.checkAll("node built")
}

// foreign hands the node records that do not fit — cut over another
// state, under another configuration, truncated, or for a later version
// — each of which it must refuse with nothing applied.
func (r *oracleRun) foreign(state ivm.ReplicaState) {
	pred := r.basePred[0]
	t := r.fresh(pred)
	// cut is v's record of inserting t with sign as the commit after
	// state's version.
	cut := func(v *ivm.Views, err error, sign int64) (rec ivm.CommitRecord, ok bool) {
		if err == nil {
			v.SeedVersion(state.Version)
			v.History()
			_, err = v.Apply(ivm.NewUpdate().InsertTuple(pred, t, sign))
			ok = err == nil
		}
		if ok {
			rec = newestRecord(v)
		}
		return rec, ok
	}
	v, err := ivm.ViewsFromReplicaState(state, r.extra()...)
	good, ok := cut(v, err, 1)
	if !ok {
		return
	}
	records := map[string]ivm.CommitRecord{"a later": {Version: good.Version + 1, Keys: good.Keys, Payload: good.Payload}}
	if cut, err := storage.DecodeCommitRecord(good.Payload[:len(good.Payload)-3]); err == nil {
		records["a truncated"] = cut
	}
	// Another state's: views that hold t take it away.
	if v, err := ivm.ViewsFromReplicaState(state, r.extra()...); err == nil {
		if _, err = v.Apply(ivm.NewUpdate().InsertTuple(pred, t, 1)); err == nil {
			if rec, ok := cut(v, nil, -1); ok {
				records["another state's"] = rec
			}
		}
	}
	// Another configuration's: the state checkpointed, then reopened
	// under other options.
	for _, other := range []struct {
		s   ivm.Strategy
		sem ivm.Semantics
	}{{ivm.Recompute, ivm.DuplicateSemantics}, {ivm.Recompute, ivm.SetSemantics}, {ivm.DRed, ivm.SetSemantics}} {
		if other.s == r.strategy && other.sem == r.sem {
			continue
		}
		dir := r.t.TempDir()
		v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) { return ivm.ViewsFromReplicaState(state, r.extra()...) })
		if err == nil {
			err = v.Close()
		}
		if err == nil {
			v, _, err = ivm.OpenStore(dir, nil, append(r.extra(), ivm.WithStrategy(other.s), ivm.WithSemantics(other.sem))...)
		}
		rec, ok := cut(v, err, 1)
		if err == nil {
			v.Close()
		}
		if ok {
			records["another configuration's"] = rec
			break
		}
	}
	for name, rec := range records {
		_, err := r.node.ApplyCommitRecord(rec, time.Time{})
		var div *ivm.DivergenceError
		switch diverged := errors.As(err, &div); {
		case err == nil || (name == "a truncated") == diverged:
			r.fatal("the node folds %s record: err = %v", name, err)
		case name == "another configuration's" && (div.Engine == "" || div.Engine == div.Have),
			name == "another state's" && (div.Pred == "" || div.Tuple == nil):
			r.fatal("%s record: the divergence does not say why: %+v", name, div)
		}
		r.check(name+" record", r.node)
	}
	r.hit("foreign-records")
}

// startFollower serves the store-bound writer over loopback and tails it.
func (r *oracleRun) startFollower() {
	r.srv = server.New(r.w, server.Options{ReplHeartbeat: 20 * time.Millisecond})
	if err := r.srv.Start(); err != nil {
		r.fatal("server: %v", err)
	}
	rep, err := replica.Start(r.srv.URL(), replica.Options{ExtraOptions: r.extra(),
		Retry: client.RetryPolicy{MaxAttempts: 20, BaseDelay: 3 * time.Millisecond, MaxDelay: 50 * time.Millisecond}})
	if err != nil {
		r.fatal("follower: %v", err)
	}
	r.rep = rep
	rep.Views().History() // from the first record it folds
	rep.Views().OnCommit(func(cs *ivm.ChangeSet) { r.mu.Lock(); r.refolded[cs.Version()] = renderChanges(cs); r.mu.Unlock() })
	r.t.Cleanup(func() {
		rep.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.srv.Shutdown(ctx)
	})
}

// finish ends the leg: the follower catches up and is compared, and the
// store is recovered once more, then refuses a record stamped behind it.
func (r *oracleRun) finish() {
	for _, check := range r.unread {
		check()
	}
	if r.leg == "follower" {
		r.finishFollower()
	}
	if !r.storeLeg() || r.walLost {
		return
	}
	r.reopen()
	last := r.version
	if err := r.w.Close(); err != nil {
		r.fatal("close: %v", err)
	}
	r.reopenElsewhere()
	st, err := storage.OpenStore(r.dir, storage.StoreOptions{})
	if err != nil {
		r.fatal("storage: %v", err)
	}
	if wait, err := st.AppendVersionedAsync(last-1, "+link(x,y).", nil); err != nil || wait() != nil || st.Close() != nil {
		r.fatal("storage: %v", err)
	}
	var behind *ivm.DivergenceError
	if _, _, err = ivm.OpenStore(r.dir, nil, r.options(r.strategy)...); !errors.As(err, &behind) || behind.Version != last-1 || behind.At != last {
		r.fatal("recovery over a record two versions behind: %v", err)
	}
}

// reopenElsewhere opens the closed store under a configuration whose
// stamp is not its records': refused while the WAL holds a record, opened
// once the stamped configuration has recovered and checkpointed — by
// rematerializing the checkpoint's base relations, which must hold what a
// recomputation under that configuration holds — and checkpointed again
// under the other one.
func (r *oracleRun) reopenElsewhere() {
	other := ivm.DRed
	switch {
	case r.strategy == ivm.Recompute:
		other = ivm.Auto
	case r.w.Strategy() == ivm.DRed || r.sem == ivm.DuplicateSemantics:
		other = ivm.Recompute
	}
	v, _, err := ivm.OpenStore(r.dir, nil, r.options(other)...)
	var div *ivm.DivergenceError
	if logged := r.version > 1; logged != errors.As(err, &div) || logged && div.Engine == div.Have {
		r.fatal("opening records cut by %v views under %v: %v", r.strategy, other, err)
	}
	if err == nil {
		v.Close()
	}
	if v, _, err = ivm.OpenStore(r.dir, nil, r.options(r.strategy)...); err != nil || v.Shutdown() != nil {
		r.fatal("recovering under %v to checkpoint: %v", r.strategy, err)
	}
	if v, _, err = ivm.OpenStore(r.dir, nil, r.options(other)...); err != nil {
		r.fatal("opening the checkpoint under %v: %v", other, err)
	}
	st, strategy := r.st, r.strategy
	r.strategy = other
	if r.st, err = r.recomputeOnce(st.base, st.rules); err != nil {
		r.fatal("recomputing under %v: %v", other, err)
	}
	r.check("reopened under "+other.String(), v)
	for pred, want := range r.st.want { // counts too: DRed's are 1, not the checkpoint's
		if got := v.Rows(pred); !sameRows(want, got, true) {
			r.fatal("the checkpoint opened under %v: %s holds\n%v\nthe recomputation\n%v", other, pred, got, want)
		}
	}
	r.st, r.strategy = st, strategy
	if err := v.Shutdown(); err != nil {
		r.fatal("checkpointing under %v: %v", other, err)
	}
	r.hit("reopened-elsewhere")
}

func (r *oracleRun) finishFollower() {
	for end := time.Now().Add(30 * time.Second); r.rep.Applied() < r.version; time.Sleep(2 * time.Millisecond) {
		select {
		case <-r.rep.Done():
			r.fatal("replication ended at version %d: %v", r.rep.Applied(), r.rep.Err())
		default:
		}
		if time.Now().After(end) {
			r.fatal("the follower is stuck at version %d", r.rep.Applied())
		}
	}
	f := r.rep.Views()
	r.check("follower", f)
	r.requireDedups("follower", f)
	r.mu.Lock()
	for ver, cs := range r.changes {
		if got, want := r.refolded[ver], renderChanges(cs); got != want {
			r.mu.Unlock()
			r.fatal("the follower reported version %d as\n%s\nthe primary as\n%s", ver, got, want)
		}
	}
	r.mu.Unlock()
	// The traces of the two nodes line up by version: each version both
	// histories trace, the follower traces with the primary's keys and
	// publish time (the 'D' frame's stamp) and a fold of its own.
	ph, fh := r.w.History(), f.History()
	lo, hi, _ := fh.Bounds()
	for ver := lo + 1; ver <= hi; ver++ {
		p, _ := ph.At(ver)
		q, _ := fh.At(ver)
		if p.Trace == nil || q.Trace == nil {
			continue
		}
		if !slices.Equal(q.Trace.Keys, p.Trace.Keys) || !q.Trace.PrimaryPublished.Equal(p.Trace.Published) || q.Trace.Fold <= 0 {
			r.fatal("version %d: the primary traces keys %q published %v; the follower keys %q, the primary's publish %v, a fold of %v",
				ver, p.Trace.Keys, p.Trace.Published, q.Trace.Keys, q.Trace.PrimaryPublished, q.Trace.Fold)
		}
		r.hit("traces-joined")
	}
	snap := r.rep.Registry().Snapshot()
	if resets, div := snap.Counter("replica_resets_total"), snap.Counter("replica_divergence_total"); resets != 0 || div != 0 {
		r.fatal("replica_resets_total %d, replica_divergence_total %d", resets, div)
	}
	var ahead *ivm.DivergenceError
	_, err := f.ApplyCommitRecord(ivm.CommitRecord{Version: r.version + 2, Script: "+link(x,y)."}, time.Time{})
	if !errors.As(err, &ahead) || ahead.Version != r.version+2 || ahead.At != r.version {
		r.fatal("the follower folds a record two versions ahead: %v", err)
	}
	r.check("follower after a refused record", f)
}

func oracleKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
