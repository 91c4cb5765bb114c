package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ivm"
	"ivm/internal/relation"
	"ivm/internal/storage"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // run length: a workload times opsPerSecond × seconds ops
	trace   bool
	smoke   bool
	dir     string // where durable stacks put their stores
	outDir  string // where span files and the report go
	nproc   int
}

// setupRepeats is how many times an untraced run builds the workload's
// state: setup_s is the median, so one slow fsync or page-cache miss
// during a single build does not decide it.
const setupRepeats = 31

// kernelOps is how many stream ops the direct kernels replay.
const kernelOps = 512

// result is one workload's measurements.
type result struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	StreamSHA256 string             `json:"stream_sha256"`
	Traced       bool               `json:"traced"`
	Samples      map[string]int     `json:"samples"`
	Metrics      map[string]float64 `json:"metrics"`
	Attempted    int                `json:"ops_attempted"`
	Failed       int                `json:"ops_failed"`
	Errors       []string           `json:"errors,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
}

func (r *result) failf(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *result) absorb(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.firstErr != nil && len(r.Errors) < 8 {
		r.Errors = append(r.Errors, p.firstErr.Error())
	}
}

// check counts one oracle check as an op: a mismatch is a failed op.
func (r *result) check(what string, err error) {
	r.Attempted++
	if err != nil {
		r.failf("%s: %v", what, err)
	}
}

// checkLoad refuses a workload that would run more load-generating
// goroutines than the host has processors: the generators would then
// queue behind the program under test and their timings measure the
// scheduler.
func checkLoad(w *workloadDef, nproc int) error {
	if g := w.generators(); g > nproc {
		return fmt.Errorf("%s runs %d generator goroutines but nproc is %d", w.name, g, nproc)
	}
	return nil
}

// smokeOps is the timed length of a smoke-scale run.
const smokeOps = 120

// phaseOps is the (warm-up, timed) op count of a phase given its share
// of the run: a tenth of the timed length is applied first, untimed.
func (c *config) phaseOps(w *workloadDef, share float64) (warm, timed int) {
	n := float64(smokeOps)
	if !c.smoke {
		n = float64(w.opsPerSecond) * c.seconds
	}
	timed = max(int(n*share), 1)
	return max(timed/10, 1), timed
}

// streamOps is how many ops of its stream an untraced run consumes:
// warm-up, timed phase and, on a durable workload, the reopen tail.
func (c *config) streamOps(w *workloadDef) int {
	warm, timed := c.phaseOps(w, 1)
	if w.durable {
		return warm + timed + reopenTail(c.smoke)
	}
	return warm + timed
}

// measure runs one workload: the plain timed phase at its entry point
// with every correctness check, and for a traced run the layer ladder
// and the direct kernels as well.
func measure(ctx context.Context, w *workloadDef, c *config) (*result, error) {
	if err := checkLoad(w, c.nproc); err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: c.seed, Traced: c.trace,
		StreamSHA256: streamSHA256(w.newGen(c.seed, c.smoke), c.streamOps(w)),
		Samples:      make(map[string]int),
		Metrics:      make(map[string]float64),
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			res.Metrics[d.name] = 0
		}
	}

	// Build the state several times and keep the last; setup_s is the
	// median. A traced run builds once here and adds its ladder's
	// entry-point build below.
	var setups []float64
	repeats := setupRepeats
	if c.trace {
		repeats = 1
	}
	var s *stack
	for i := 0; i < repeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each build starts from a collected heap, not the last build's garbage
		var err error
		if s, err = setup(w, w.top(), c.seed, c.smoke, nil, c.dir); err != nil {
			return nil, err
		}
		setups = append(setups, s.setupAt.Seconds())
	}
	defer func() { s.close() }()

	share := 1.0
	if c.trace {
		share = 1.0 / 3
	}
	warm, timed := c.phaseOps(w, share)
	p, err := runPhase(ctx, s, warm, timed, phaseOpts{visible: c.trace})
	if err != nil {
		return nil, err
	}
	res.absorb(p)
	res.Metrics["heap_live_mb"] = heapLiveMB()
	res.plainMetrics(p)
	res.verify(ctx, s, p, c.smoke)

	if c.trace {
		top, err := res.ladder(ctx, w, c, p)
		if err != nil {
			return nil, err
		}
		setups = append(setups, top.Seconds())
		if err := res.kernels(w, c); err != nil {
			return nil, err
		}
	}
	res.Metrics["setup_s"] = medianOf(setups)
	res.Samples["setups"] = len(setups)
	if late := res.Metrics["gen.late_p99_ms"]; late > 1 {
		res.Notes = append(res.Notes, fmt.Sprintf("gen.late_p99_ms = %.3f > 1: the open-loop reader ran late; tail.read_* is suspect", late))
	}
	return res, nil
}

// plainMetrics fills in everything the timed phase at the entry point
// gives: the end-to-end metrics, and the per-layer figures that are
// deltas of the program's own counters or of the runtime's.
func (r *result) plainMetrics(p *phase) {
	m := r.Metrics
	n := float64(len(p.applies))
	r.Samples["applies"] = len(p.applies)
	r.Samples["applies_del"] = len(p.byKind[opDelete])
	r.Samples["applies_ins"] = len(p.byKind[opInsert])
	r.Samples["reads"] = len(p.reads)
	r.Samples["ryw_reads"] = len(p.ryw)

	m["tail.applies_per_s"] = ratio(n, p.wall.Seconds())
	m["tail.apply_p50_ms"] = ms(p.applies.percentile(50))
	m["tail.apply_p99_ms"] = ms(p.applies.percentile(99))
	m["tail.cpu_ms_per_apply"] = ratio(ms(p.cpu), n)

	m["tail.apply_del_p50_ms"] = ms(p.byKind[opDelete].percentile(50))
	m["tail.apply_ins_p50_ms"] = ms(p.byKind[opInsert].percentile(50))
	m["tail.read_p50_ms"] = ms(p.reads.percentile(50))
	m["tail.read_p99_ms"] = ms(p.reads.percentile(99))
	m["tail.replica_ryw_p50_ms"] = ms(p.ryw.percentile(50))
	m["tail.replica_ryw_p99_ms"] = ms(p.ryw.percentile(99))
	m["replica.visible_us"] = us(p.visible.percentile(50))
	m["gen.late_p99_ms"] = ms(p.late.percentile(99))

	c := p.ctr
	perApply := func(name string) float64 { return ratio(c[name], n) }
	m["counting.delta_tuples"] = perApply("counting_delta_tuples_total")
	m["counting.delta_rules"] = perApply("counting_delta_rules_total")
	m["counting.cascade_stops"] = perApply("counting_cascade_stops_total")
	m["dred.step1_us"] = c.meanUS("dred_step1_seconds")
	m["dred.step2_us"] = c.meanUS("dred_step2_seconds")
	m["dred.step3_us"] = c.meanUS("dred_step3_seconds")
	m["dred.overestimated"] = perApply("dred_overestimated_total")
	m["dred.rederived"] = perApply("dred_rederived_total")
	m["dred.inserted"] = perApply("dred_inserted_total")
	m["dred.fixpoint_rounds"] = perApply("dred_fixpoint_rounds_total")
	m["dred.useful_ratio"] = ratio(c["dred_overestimated_total"]-c["dred_rederived_total"], c["dred_overestimated_total"])
	m["eval.join_probes"] = perApply("eval_join_probes_total")
	m["eval.join_scans"] = perApply("eval_join_scans_total")
	m["eval.planner_hit_ratio"] = ratio(c["planner_hits_total"], c["planner_hits_total"]+c["planner_misses_total"])
	m["eval.planner_replans"] = c["planner_replans_total"]
	m["relation.indexes_built"] = c["relation_indexes_built"]
	m["sched.wait_us"] = c.meanUS("sched_apply_wait_seconds")
	m["sched.coalesce_ratio"] = ratio(c["sched_batch_updates_total"], c["sched_batches_total"])
	m["storage.fsync_us"] = c.meanUS("storage_wal_fsync")
	m["storage.wal_bytes"] = perApply("storage_wal_append_bytes_total")
	m["storage.fsyncs"] = perApply("storage_wal_fsyncs_total")
	m["storage.write_amp"] = ratio(c["storage_wal_append_bytes_total"], float64(p.scriptBytes))
	m["server.request_us"] = c.meanUS("server_request_seconds")
	m["server.request_errors"] = c["server_request_errors_total"]
	m["server.dedups"] = c["server_apply_dedup_total"]
	m["client.retries"] = c["client_retries"]
	m["replica.records"] = c["replica_records_total"]
	m["replica.reconnects"] = c["replica_reconnects_total"]
	m["replica.resets"] = c["replica_resets_total"]
	m["replica.divergence"] = c["replica_divergence_total"]
	m["allocs_per_apply"] = ratio(float64(p.mallocs), n)
	m["alloc_kb_per_apply"] = ratio(float64(p.allocBytes)/1024, n)
	m["process.gc_cycles"] = float64(p.gcCycles)
	m["process.gc_pause_ms"] = ms(p.gcPause)

	for _, must0 := range []string{"server.request_errors", "server.dedups", "client.retries", "replica.reconnects", "replica.resets", "replica.divergence"} {
		if m[must0] != 0 {
			r.failf("%s = %v, must be 0", must0, m[must0])
		}
	}
	if cr := m["sched.coalesce_ratio"]; cr != 0 && cr != 1 {
		r.failf("sched.coalesce_ratio = %v with one writer, must be 1", cr)
	}
}

// reopenTail is how many applies a durable workload makes between its
// checkpoint and its Close: the reopen replays exactly these, so
// tail.reopen_s times a fixed amount of work however many applies the timed
// phase got through.
func reopenTail(smoke bool) int {
	if smoke {
		return 40
	}
	return 2000
}

// verify runs the end-of-workload correctness checks on the entry-point
// stack: maintained ≡ recomputed; follower ≡ primary; reopened ≡
// pre-close with every record since the checkpoint replayed.
func (r *result) verify(ctx context.Context, s *stack, p *phase, smoke bool) {
	m := r.Metrics
	tail := 0
	if s.storeDir != "" {
		t0 := time.Now()
		err := s.views.Sync()
		m["storage.checkpoint_ms"] = ms(time.Since(t0))
		for ; err == nil && tail < reopenTail(smoke); tail++ {
			o := s.gen.next()
			_, err = s.call(ctx, &o)()
		}
		r.check("checkpoint and tail applies", err)
	}
	r.check("oracle", checkOracle(s.w.program, s.gen.links(), s.views))

	if s.rep != nil {
		final := s.views.Snapshot().Version()
		if !s.rep.Views().WaitForVersion(final, 10*time.Second) {
			r.check("follower convergence", fmt.Errorf("follower at version %d, primary at %d", s.rep.Applied(), final))
		} else {
			r.check("follower convergence", stateOf(s.rep.Views()).diff(stateOf(s.views)))
		}
		// One delta record per apply, plus the stream's heartbeats.
		if got, want := m["replica.records"], float64(len(p.applies)); got < want {
			r.failf("replica.records = %v over the timed phase, fewer than the %v applies", got, want)
		}
	}

	if s.storeDir != "" {
		before, version := stateOf(s.views), s.views.Snapshot().Version()
		// Stop the server first so nothing is in flight, then Close
		// without a checkpoint: the reopen must replay the tail.
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := s.srv.Shutdown(sctx)
		cancel()
		s.srv = nil
		if err == nil {
			err = s.views.Close()
		}
		if err != nil {
			r.check("close", err)
			return
		}
		t0 := time.Now()
		reopened, info, err := ivm.OpenStore(s.storeDir, nil)
		took := time.Since(t0)
		if err != nil {
			r.check("reopen", err)
			return
		}
		m["tail.reopen_s"] = took.Seconds()
		m["storage.replay_us"] = ratio(us(took), float64(info.Replayed))
		r.Samples["replayed"] = info.Replayed
		switch {
		case info.Replayed != tail:
			err = fmt.Errorf("replayed %d WAL records, %d applies were acked since the checkpoint", info.Replayed, tail)
		case reopened.Snapshot().Version() != version:
			err = fmt.Errorf("reopened at version %d, closed at %d", reopened.Snapshot().Version(), version)
		default:
			err = stateOf(reopened).diff(before)
		}
		r.check("reopen", err)
		if err := reopened.Close(); err != nil {
			r.check("close after reopen", err)
		}
	}
}

// ladder replays the head of the stream through each rung the workload
// crosses, each from a fresh copy of the state and with spans recorded,
// then turns rung differences into per-layer self times: every op is
// timed at every rung. It returns the setup time of the entry-point rung.
func (r *result) ladder(ctx context.Context, w *workloadDef, c *config, plain *phase) (time.Duration, error) {
	rec := newRecorder(w.name)
	m := r.Metrics
	warm, timed := c.phaseOps(w, 1.0/4)
	var topSetup time.Duration
	for _, rung := range w.rungs {
		s, err := setup(w, rung, c.seed, c.smoke, rec.tracer(), c.dir)
		if err != nil {
			return 0, err
		}
		p, err := runPhase(ctx, s, warm, timed, phaseOpts{spans: rec})
		if err == nil && rung == w.top() {
			topSetup = s.setupAt
			if w.reader {
				r.readLadder(ctx, s, timed)
			}
		}
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("ladder rung %s: %w", rungNames[rung], err)
		}
		r.absorb(p)
		r.Samples["ladder."+rungNames[rung]] = len(p.applies)
	}

	var names []string
	for _, rung := range w.rungs {
		names = append(names, rungNames[rung])
	}
	self := selfTimes(rec.spans, names)
	apply, child := rungMedians(rec.spans)
	top := apply[rungNames[w.top()]]
	for _, name := range names {
		fmt.Printf("%s ladder.%s_self %.3f us\n", w.name, name, us(self[name]))
		fmt.Printf("%s ladder.%s_share %.4f ratio\n", w.name, name, ratio(float64(self[name]), float64(top)))
	}
	m["core.maintain_us"] = us(self["engine"])
	for i := 1; i <= 3; i++ {
		m[fmt.Sprintf("core.stratum_us.%d", i)] = us(child["engine"][fmt.Sprintf("stratum.%d", i)])
	}
	m["views.overhead_us"] = us(self["views"])
	m["parser.ladder_us"] = us(self["script"])
	m["storage.wal_us"] = us(self["store"])
	m["server.apply_http_us"] = us(self["http"])
	m["replica.primary_tax_ratio"] = ratio(float64(apply["follower"]), float64(apply["http"]))
	m["trace.overhead_ratio"] = ratio(float64(top), float64(plain.applies.median()))

	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return 0, err
	}
	if err := rec.write(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
		return 0, err
	}
	r.Samples["spans"] = len(rec.spans)
	return topSetup, nil
}

// readLadder times each read of the mix twice, once straight at the
// snapshot and once through the client and server, and reports the
// snapshot's time and what HTTP adds.
func (r *result) readLadder(ctx context.Context, s *stack, reads int) {
	var direct, added samples
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		err := s.read(ctx, i, true)
		t1 := time.Now()
		if err == nil {
			err = s.read(ctx, i, false)
		}
		t2 := time.Now()
		r.check("read ladder", err)
		direct = append(direct, int64(t1.Sub(t0)))
		added = append(added, int64(t2.Sub(t1)-t1.Sub(t0)))
	}
	r.Samples["ladder.reads"] = len(direct)
	r.Metrics["snapshot.read_us"] = us(direct.median())
	r.Metrics["server.read_http_us"] = us(added.median())
}

// kernels calls single layers directly on the head of the stream.
func (r *result) kernels(w *workloadDef, c *config) error {
	m := r.Metrics
	gen := w.newGen(c.seed, c.smoke)
	links := gen.links()
	ops := make([]op, kernelOps)
	for i := range ops {
		ops[i] = gen.next()
	}

	// parser and update: parse and render every script.
	var parse, render samples
	var bytes, rendered int
	for i := range ops {
		t0 := time.Now()
		u, err := ivm.ParseUpdate(ops[i].script)
		parse = append(parse, int64(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		out := u.String()
		render = append(render, int64(time.Since(t0)))
		bytes += len(ops[i].script)
		rendered += len(out)
	}
	m["parser.parse_us"] = us(parse.median())
	m["parser.script_bytes"] = float64(bytes) / kernelOps
	m["update.render_us"] = us(render.median())
	if rendered < bytes {
		r.check("render", fmt.Errorf("%d script bytes parsed, %d rendered back", bytes, rendered))
	}

	// relation: load the base tuples, then probe the join-column index.
	tuples := make([]ivm.Tuple, len(links))
	for i, e := range links {
		tuples[i] = ivm.T(e.a, e.b)
	}
	rel := relation.New(2)
	t0 := time.Now()
	for _, t := range tuples {
		rel.Add(t, 1)
	}
	m["relation.add_ns"] = ratio(float64(time.Since(t0)), float64(len(tuples)))
	rel.Lookup([]int{0}, tuples[0][:1]) // builds the index, outside the stopwatch
	found := 0
	t0 = time.Now()
	for _, t := range tuples {
		found += len(rel.Lookup([]int{0}, t[:1]))
	}
	m["relation.probe_ns"] = ratio(float64(time.Since(t0)), float64(len(tuples)))
	if found < len(tuples) {
		r.check("relation probe", fmt.Errorf("%d probes found %d rows", len(tuples), found))
	}

	// storage: append + wait on a scratch store, one fsync per record.
	if w.durable {
		dir, err := os.MkdirTemp(c.dir, "kernel-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := storage.OpenStore(dir, storage.StoreOptions{})
		if err != nil {
			return err
		}
		var appends samples
		for i := range ops {
			t0 := time.Now()
			wait, err := st.AppendVersionedAsync(uint64(i+2), ops[i].script, []string{fmt.Sprintf("k-%d", i)})
			if err == nil {
				err = wait()
			}
			appends = append(appends, int64(time.Since(t0)))
			if err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		m["storage.append_us"] = us(appends.median())
	}

	// replica: the follower's apply path on a scratch follower Views.
	if w.top() == rungFollower {
		v, err := baseDB(links).Materialize(w.program)
		if err != nil {
			return err
		}
		var reapply samples
		for i := range ops {
			t0 := time.Now()
			_, err := v.ApplyScriptReplicated(ops[i].script, []string{fmt.Sprintf("k-%d", i)})
			reapply = append(reapply, int64(time.Since(t0)))
			if err != nil {
				return err
			}
		}
		m["replica.reapply_us"] = us(reapply.median())
	}
	return nil
}
