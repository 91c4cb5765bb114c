package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/core/counting"
	"ivm/internal/core/dred"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/replica"
	"ivm/internal/server"
)

// The rungs of the layer ladder: each one drives the same op stream
// through one more layer of the apply path than the rung below it.
const (
	rungEngine   = iota // counting/dred Engine.Apply(deltas)
	rungViews           // Views.Apply(update)
	rungScript          // Views.ApplyScript(script)
	rungStore           // the same on store-bound views (WAL append + fsync)
	rungHTTP            // client.ApplyWithKey over loopback HTTP
	rungFollower        // the same with a follower tailing the primary
)

var rungNames = [...]string{"engine", "views", "script", "store", "http", "follower"}

const hopProgram = `hop(X,Y) :- link(X,Z), link(Z,Y).
tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
deg(X,C) :- groupby(hop(X,Y), [X], C = count(Y)).
`

// workloadDef is one of the four fixed workloads. Sizes are calibrated
// so that, at the seed commit on a 2-core host, the default 15 s run
// times at least 2 000 applies and one apply stays well under 50 ms.
type workloadDef struct {
	name    string
	why     string
	program string
	newGen  func(seed int64, smoke bool) generator
	// opsPerSecond freezes the stream's length: a run of -seconds s times
	// opsPerSecond × s ops, whatever the host's speed that day. It is the
	// workload's throughput at the seed commit on the calibration host,
	// rounded down, so the timed phase there lasts about s seconds.
	opsPerSecond int
	// rungs are the ladder rungs the workload crosses, bottom first; the
	// last one is its entry point, which the end-to-end metrics time.
	rungs []int
	// durable binds the views to a store (fsync per apply) from rungStore up.
	durable bool
	// reader runs the open-loop reader beside the writer.
	reader bool
}

func (w *workloadDef) top() int { return w.rungs[len(w.rungs)-1] }

// generators is how many load-generating goroutines (and connections)
// the workload runs; the load discipline caps it at nproc.
func (w *workloadDef) generators() int {
	if w.reader {
		return 2
	}
	return 1
}

var workloads = []*workloadDef{
	{
		name:    "hop_batch_mem",
		why:     "in-memory counting over three strata, mixed batches of 32: evaluation is nearly all the work, so core/eval/relation changes show here",
		program: hopProgram,
		newGen: func(seed int64, smoke bool) generator {
			if smoke {
				return newSlidingGen(seed, 200, 600, 4)
			}
			return newSlidingGen(seed, 2000, 4000, 16)
		},
		opsPerSecond: 160,
		rungs:        []int{rungEngine, rungViews},
	},
	{
		name:    "tc_dred_mem",
		why:     "in-memory DRed on transitive closure, alternating delete and re-insert of 4 links: overestimate/rederive cost apart from insertion cost",
		program: "tc(X,Y) :- link(X,Y).\ntc(X,Y) :- tc(X,Z), link(Z,Y).\n",
		newGen: func(seed int64, smoke bool) generator {
			if smoke {
				return newFlipGen(seed, 5, 8, 2, 6, 2)
			}
			return newFlipGen(seed, 8, 24, 2, 40, 4)
		},
		opsPerSecond: 280,
		rungs:        []int{rungEngine, rungViews},
	},
	{
		name:    "served_small_durable",
		why:     "full stack with fsync per apply over loopback HTTP, 2-link applies beside 200 reads/s: fixed per-apply overheads dominate, not evaluation",
		program: "hop(X,Y) :- link(X,Z), link(Z,Y).\n",
		newGen: func(seed int64, smoke bool) generator {
			if smoke {
				return newPairGen(seed, 100, 150)
			}
			return newPairGen(seed, 2000, 3000)
		},
		opsPerSecond: 1200,
		rungs:        []int{rungEngine, rungViews, rungScript, rungStore, rungHTTP},
		durable:      true,
		reader:       true,
	},
	{
		name:    "replica_follow",
		why:     "memory-only primary plus one follower, batches of 16, each apply followed by a read-your-writes read on the follower: replication ship and re-apply cost",
		program: hopProgram,
		newGen: func(seed int64, smoke bool) generator {
			if smoke {
				return newSlidingGen(seed, 150, 400, 2)
			}
			return newSlidingGen(seed, 800, 1600, 8)
		},
		opsPerSecond: 150,
		rungs:        []int{rungEngine, rungViews, rungScript, rungHTTP, rungFollower},
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stack is one fresh copy of a workload's state, built up to one rung.
type stack struct {
	w    *workloadDef
	rung int
	gen  generator

	// engine and engReg are set at rungEngine only.
	engine func(map[string]*relation.Relation) error
	engReg *metrics.Registry

	views    *ivm.Views
	storeDir string
	srv      *server.Server
	cli      *client.Client
	rep      *replica.Replica
	fsrv     *server.Server
	fcli     *client.Client

	reads   []readOp
	setupAt time.Duration // wall time setup took
}

// baseDB loads the generator's links into a fresh database.
func baseDB(links []edge) *ivm.Database {
	db := ivm.NewDatabase()
	for _, e := range links {
		db.Insert("link", e.a, e.b)
	}
	return db
}

// setup generates the workload's inputs from seed and builds its state
// up to rung: load base, materialize (or open the store), start the
// servers and the follower. tracer, when non-nil, is installed in the
// engine; dir is where a durable stack puts its store.
func setup(w *workloadDef, rung int, seed int64, smoke bool, tracer ivm.Tracer, dir string) (*stack, error) {
	start := time.Now()
	s := &stack{w: w, rung: rung, gen: w.newGen(seed, smoke)}
	links := s.gen.links()
	s.reads = readMix(links)
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	if rung == rungEngine {
		if err := s.setupEngine(links, tracer); err != nil {
			return nil, err
		}
		ok = true
		s.setupAt = time.Since(start)
		return s, nil
	}

	var opts []ivm.Option
	if tracer != nil {
		opts = append(opts, ivm.WithTracer(tracer))
	}
	materialize := func() (*ivm.Views, error) { return baseDB(links).Materialize(w.program, opts...) }
	var err error
	if w.durable && rung >= rungStore {
		if s.storeDir, err = os.MkdirTemp(dir, "store-*"); err != nil {
			return nil, err
		}
		// No WithGroupCommit: every apply pays its own fsync.
		s.views, _, err = ivm.OpenStore(s.storeDir, materialize, opts...)
	} else {
		s.views, err = materialize()
	}
	if err != nil {
		return nil, fmt.Errorf("materializing %s: %w", w.name, err)
	}

	if rung >= rungHTTP {
		s.srv = server.New(s.views, server.Options{})
		if err := s.srv.Start(); err != nil {
			return nil, err
		}
		s.cli = client.New(s.srv.URL(), nil)
	}
	if rung >= rungFollower {
		if s.rep, err = replica.Start(s.srv.URL(), replica.Options{}); err != nil {
			return nil, fmt.Errorf("starting follower: %w", err)
		}
		s.fsrv = server.New(s.rep.Views(), server.Options{
			LeaderURL:    s.srv.URL(),
			ExtraMetrics: []*metrics.Registry{s.rep.Registry()},
		})
		if err := s.fsrv.Start(); err != nil {
			return nil, err
		}
		s.fcli = client.New(s.fsrv.URL(), nil)
	}
	ok = true
	s.setupAt = time.Since(start)
	return s, nil
}

// setupEngine builds the bare maintenance engine the Views would pick
// (counting for a nonrecursive program, DRed for a recursive one).
func (s *stack) setupEngine(links []edge, tracer ivm.Tracer) error {
	res, err := parser.Parse(s.w.program)
	if err != nil {
		return err
	}
	base := eval.NewDB()
	rel := base.Ensure("link", 2)
	for _, e := range links {
		rel.Add(ivm.T(e.a, e.b), 1)
	}
	s.engReg = metrics.NewRegistry()
	ce, err := counting.NewWithConfig(res.Program, base, counting.Config{Semantics: eval.Set, Metrics: s.engReg, Tracer: tracer})
	if err == nil {
		s.engine = func(d map[string]*relation.Relation) error { _, err := ce.Apply(d); return err }
		return nil
	}
	if !errors.Is(err, counting.ErrRecursive) {
		return err
	}
	de, err := dred.NewWithConfig(res.Program, base, dred.Config{Metrics: s.engReg, Tracer: tracer})
	if err != nil {
		return err
	}
	s.engine = func(d map[string]*relation.Relation) error { _, err := de.Apply(d); return err }
	return nil
}

// call prepares op o for the stack's rung and returns the function to
// time: everything the generator would do anyway (building the Update,
// choosing the key) happens here, outside the stopwatch. The returned
// function reports the version the apply published (0 at rungEngine).
func (s *stack) call(ctx context.Context, o *op) func() (uint64, error) {
	switch {
	case s.rung == rungEngine:
		d := o.deltas()
		return func() (uint64, error) { return 0, s.engine(d) }
	case s.rung == rungViews:
		u := ivm.UpdateFromRelations(o.deltas())
		return func() (uint64, error) { return version(s.views.Apply(u)) }
	case s.rung < rungHTTP:
		return func() (uint64, error) { return version(s.views.ApplyScript(o.script)) }
	default:
		// Every stack has its own Views, hence its own dedup window: the
		// op id alone is a unique key.
		key := fmt.Sprintf("op-%d", o.id)
		return func() (uint64, error) {
			res, err := s.cli.ApplyWithKey(ctx, key, o.script)
			if err != nil {
				return 0, err
			}
			if res.Deduped {
				return 0, fmt.Errorf("apply %s answered from the dedup window", key)
			}
			return res.Version, nil
		}
	}
}

func version(cs *ivm.ChangeSet, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	return cs.Version(), nil
}

// counters reads every registry the stack owns into one flat map.
func (s *stack) counters(ctx context.Context) (counters, error) {
	c := make(counters)
	if s.engReg != nil {
		c.addSnapshot(s.engReg.Snapshot())
	}
	if s.views != nil {
		c.addSnapshot(s.views.Metrics())
	}
	if s.cli != nil {
		// The server's own registry is reachable only through the
		// exposition; it repeats the engine series read above.
		m, err := s.cli.Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("reading /v1/metrics: %w", err)
		}
		c.addMap(m)
		st := s.cli.Stats()
		c["client_retries"] = float64(st.Retries)
	}
	if s.rep != nil {
		c.addSnapshot(s.rep.Registry().Snapshot())
	}
	return c, nil
}

// close stops everything the stack started, follower first, and removes
// its store. Safe on a partly built stack.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.rep != nil {
		s.rep.Stop()
	}
	if s.fsrv != nil {
		keep(s.fsrv.Shutdown(ctx))
	}
	if s.srv != nil {
		keep(s.srv.Shutdown(ctx))
	}
	if s.views != nil {
		keep(s.views.Close())
	}
	if s.storeDir != "" {
		keep(os.RemoveAll(s.storeDir))
	}
	return first
}

// readOp is one read of the open-loop read mix with the answer the
// generator's model of the base graph predicts.
type readOp struct {
	goal   string
	ground bool  // Count on a ground goal, else Query with one variable
	args   []any // the ground goal's arguments, for Snapshot.Count
	want   int64 // Query: matches; Count: derivations
}

// readMix alternates hop(k,X) queries and ground hop(a,b) counts over up
// to 64 base nodes. The served workload's writes touch only nodes
// outside the base graph, so these answers hold for the whole run.
func readMix(links []edge) []readOp {
	out := make(map[string][]string)
	for _, e := range links {
		out[e.a] = append(out[e.a], e.b)
	}
	nodes := make([]string, 0, len(out))
	for a := range out {
		nodes = append(nodes, a)
	}
	sort.Strings(nodes)
	var mix []readOp
	for _, a := range nodes {
		paths := make(map[string]int64) // b → number of midpoints z
		for _, z := range out[a] {
			for _, b := range out[z] {
				paths[b]++
			}
		}
		if len(paths) == 0 {
			continue
		}
		targets := make([]string, 0, len(paths))
		for b := range paths {
			targets = append(targets, b)
		}
		sort.Strings(targets)
		b := targets[0]
		mix = append(mix,
			readOp{goal: fmt.Sprintf("hop(%s,X)", a), want: int64(len(paths))},
			readOp{goal: fmt.Sprintf("hop(%s,%s)", a, b), ground: true, args: []any{a, b}, want: paths[b]})
		if len(mix) >= 128 {
			break
		}
	}
	return mix
}
