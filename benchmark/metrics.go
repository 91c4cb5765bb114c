package main

// metricDef names one reported metric. BENCHMARK.json repeats the names,
// units, directions and bounds (its schema has no room for the rest);
// TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the first run's value by which -compare lets
	// the metric worsen before it calls it worse; 0 means not judged.
	// For an end-to-end metric it is also the driver's bound.
	bound float64
	// layer is the repo module a per-layer metric belongs to, and moves
	// the end-to-end metric and workload it is expected to shift.
	layer string
	moves string
	// count marks a pure count of work done by one writer over the
	// frozen stream: it must repeat exactly from run to run.
	count bool
}

// endToEnd are the metrics the driver bounds. Its schema has one list
// for all workloads: each metric must come from every workload, never
// read 0, and over ten runs with ten seeds spread, between its quartiles,
// by less than its bound (at most 0.25; aim: a third of it). The
// workload-specific timings cannot come from every workload, and of the
// four that can, none is that steady on served_small_durable, where half
// of an apply is an fsync on a shared disk: one of the two calibrations
// in README.md, made two hours apart, has its applies_per_s, apply_p50_ms
// and cpu_ms_per_apply spreading by 0.17 to 0.25 while the three other
// workloads hold 0.03 to 0.09, and the host's drift moved hop_batch_mem's
// medians by 20 to 27 % between two sets of runs of one seed. So, by
// the issue's calibration rule, the timings are reported per-layer as
// tail.<name> and -compare gates them per (metric, workload), wherever
// baseline.json shows the pair steady enough; what the driver gates on
// every workload is setup_s, which it insists on, and the memory an
// apply costs, which tracks the work an apply does and repeats to within
// a percent. The memory bounds are 0.15 and not the issue's 0.10 because
// the driver's runs differ in seed and tc_dred_mem's DAG differs enough
// between seeds to move them by 2 to 7 %.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "alloc_kb_per_apply", unit: "KB", better: "lower", bound: 0.15},
	{name: "allocs_per_apply", unit: "count", better: "lower", bound: 0.15},
}

// The tail.* metrics are the issue's timing end-to-end metrics. Their
// bound is 0.25 and not the issue's 0.10: at 0.10 no pair of runs on the
// calibration host resolves any of them.
var perLayer = []metricDef{
	{name: "tail.applies_per_s", unit: "1/s", better: "higher", bound: 0.25, layer: "workload", moves: "timed applies ÷ timed wall time, every workload"},
	{name: "tail.apply_p50_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "call → ack of the entry point, every workload"},
	{name: "tail.apply_p99_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "call → ack of the entry point, every workload"},
	{name: "tail.cpu_ms_per_apply", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "process CPU over the timed phase ÷ applies, every workload"},
	{name: "tail.apply_del_p50_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "call → ack of delete-applies @ tc_dred_mem, served_small_durable"},
	{name: "tail.apply_ins_p50_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "call → ack of insert-applies @ tc_dred_mem, served_small_durable"},
	{name: "tail.read_p50_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "open-loop read latency from the due time @ served_small_durable"},
	{name: "tail.read_p99_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "open-loop read latency from the due time @ served_small_durable"},
	{name: "tail.replica_ryw_p50_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "primary ack → follower read at MinVersion returns @ replica_follow"},
	{name: "tail.replica_ryw_p99_ms", unit: "ms", better: "lower", bound: 0.25, layer: "workload", moves: "primary ack → follower read at MinVersion returns @ replica_follow"},
	{name: "tail.reopen_s", unit: "s", better: "lower", bound: 0.25, layer: "workload", moves: "OpenStore after an un-checkpointed Close @ served_small_durable"},

	{name: "parser.parse_us", unit: "us", better: "lower", layer: "parser", moves: "tail.apply_p50_ms, tail.reopen_s @ served_small_durable; tail.replica_ryw_p50_ms @ replica_follow; flat on *_mem"},
	{name: "parser.script_bytes", unit: "B", better: "lower", layer: "parser", moves: "parser.parse_us, storage.wal_bytes", count: true},
	{name: "parser.ladder_us", unit: "us", better: "lower", layer: "parser", moves: "tail.apply_p50_ms @ served_small_durable, replica_follow"},
	{name: "update.render_us", unit: "us", better: "lower", layer: "update", moves: "tail.apply_p50_ms @ served_small_durable, replica_follow"},

	{name: "core.maintain_us", unit: "us", better: "lower", layer: "core", moves: "tail.apply_p50_ms, tail.applies_per_s, tail.cpu_ms_per_apply @ hop_batch_mem, tc_dred_mem; at most a tenth @ served_small_durable"},
	{name: "core.stratum_us.1", unit: "us", better: "lower", layer: "core", moves: "core.maintain_us"},
	{name: "core.stratum_us.2", unit: "us", better: "lower", layer: "core", moves: "core.maintain_us"},
	{name: "core.stratum_us.3", unit: "us", better: "lower", layer: "core", moves: "core.maintain_us"},
	{name: "counting.delta_tuples", unit: "count", better: "lower", layer: "core", moves: "core.maintain_us @ hop_batch_mem", count: true},
	{name: "counting.delta_rules", unit: "count", better: "lower", layer: "core", moves: "core.maintain_us @ hop_batch_mem", count: true},
	{name: "counting.cascade_stops", unit: "count", better: "higher", layer: "core", moves: "core.maintain_us @ hop_batch_mem", count: true},

	{name: "dred.step1_us", unit: "us", better: "lower", layer: "core", moves: "tail.apply_del_p50_ms @ tc_dred_mem"},
	{name: "dred.step2_us", unit: "us", better: "lower", layer: "core", moves: "tail.apply_del_p50_ms @ tc_dred_mem"},
	{name: "dred.step3_us", unit: "us", better: "lower", layer: "core", moves: "tail.apply_ins_p50_ms @ tc_dred_mem"},
	{name: "dred.overestimated", unit: "count", better: "lower", layer: "core", moves: "dred.step1_us, dred.step2_us", count: true},
	{name: "dred.rederived", unit: "count", better: "lower", layer: "core", moves: "dred.step2_us", count: true},
	{name: "dred.inserted", unit: "count", better: "lower", layer: "core", moves: "dred.step3_us", count: true},
	{name: "dred.fixpoint_rounds", unit: "count", better: "lower", layer: "core", moves: "core.maintain_us @ tc_dred_mem", count: true},
	{name: "dred.useful_ratio", unit: "ratio", better: "higher", layer: "core", moves: "tail.apply_del_p50_ms @ tc_dred_mem", count: true},

	{name: "eval.join_probes", unit: "count", better: "lower", layer: "eval", moves: "core.maintain_us → tail.apply_p50_ms @ hop_batch_mem", count: true},
	{name: "eval.join_scans", unit: "count", better: "lower", layer: "eval", moves: "core.maintain_us → tail.apply_p50_ms @ hop_batch_mem", count: true},
	{name: "eval.planner_hit_ratio", unit: "ratio", better: "higher", layer: "eval", moves: "core.maintain_us", count: true},
	{name: "eval.planner_replans", unit: "count", better: "lower", layer: "eval", moves: "core.maintain_us", count: true},

	{name: "relation.add_ns", unit: "ns", better: "lower", layer: "relation", moves: "core.maintain_us, setup_s, tail.cpu_ms_per_apply @ hop_batch_mem"},
	{name: "relation.probe_ns", unit: "ns", better: "lower", layer: "relation", moves: "core.maintain_us, tail.cpu_ms_per_apply @ hop_batch_mem"},
	{name: "relation.indexes_built", unit: "count", better: "lower", layer: "relation", moves: "tail.apply_p99_ms (an index built after warm-up is a stall); process-wide, so readers and the follower count too"},

	{name: "views.overhead_us", unit: "us", better: "lower", layer: "views", moves: "tail.apply_p50_ms on every workload, largest share @ served_small_durable"},
	{name: "snapshot.read_us", unit: "us", better: "lower", layer: "views", moves: "tail.read_p50_ms @ served_small_durable"},

	{name: "sched.wait_us", unit: "us", better: "lower", layer: "sched", moves: "tail.apply_p50_ms @ served_small_durable"},
	{name: "sched.coalesce_ratio", unit: "ratio", better: "higher", layer: "sched", moves: "must read 1.00 with one writer", count: true},

	{name: "storage.wal_us", unit: "us", better: "lower", layer: "storage", moves: "tail.apply_p50_ms, tail.apply_p99_ms @ served_small_durable; 0 elsewhere (no store)"},
	{name: "storage.append_us", unit: "us", better: "lower", layer: "storage", moves: "storage.wal_us"},
	{name: "storage.fsync_us", unit: "us", better: "lower", layer: "storage", moves: "storage.wal_us"},
	{name: "storage.wal_bytes", unit: "B", better: "lower", layer: "storage", moves: "storage.append_us, tail.reopen_s", count: true},
	{name: "storage.fsyncs", unit: "count", better: "lower", layer: "storage", moves: "storage.wal_us", count: true},
	{name: "storage.write_amp", unit: "ratio", better: "lower", layer: "storage", moves: "storage.wal_bytes", count: true},
	{name: "storage.replay_us", unit: "us", better: "lower", layer: "storage", moves: "tail.reopen_s @ served_small_durable"},
	{name: "storage.checkpoint_ms", unit: "ms", better: "lower", layer: "storage", moves: "none of the timed metrics (no workload checkpoints while timed)"},

	{name: "server.apply_http_us", unit: "us", better: "lower", layer: "server", moves: "tail.apply_p50_ms @ served_small_durable, replica_follow"},
	{name: "server.read_http_us", unit: "us", better: "lower", layer: "server", moves: "tail.read_p50_ms, tail.read_p99_ms @ served_small_durable"},
	{name: "server.request_us", unit: "us", better: "lower", layer: "server", moves: "tail.apply_p50_ms, tail.read_p50_ms @ served_small_durable; tail.replica_ryw_p50_ms"},
	{name: "server.request_errors", unit: "count", better: "lower", layer: "server", moves: "must read 0", count: true},
	{name: "server.dedups", unit: "count", better: "lower", layer: "server", moves: "must read 0", count: true},
	{name: "client.retries", unit: "count", better: "lower", layer: "client", moves: "must read 0 (a retry is a failure share)", count: true},

	{name: "replica.reapply_us", unit: "us", better: "lower", layer: "replica", moves: "tail.replica_ryw_p50_ms, tail.cpu_ms_per_apply @ replica_follow"},
	{name: "replica.visible_us", unit: "us", better: "lower", layer: "replica", moves: "tail.replica_ryw_p50_ms, tail.replica_ryw_p99_ms @ replica_follow"},
	{name: "replica.primary_tax_ratio", unit: "ratio", better: "lower", layer: "replica", moves: "tail.apply_p50_ms, tail.applies_per_s @ replica_follow"},
	{name: "replica.records", unit: "count", better: "lower", layer: "replica", moves: "delta records shipped (one per apply) plus heartbeats; never fewer than the applies"},
	{name: "replica.reconnects", unit: "count", better: "lower", layer: "replica", moves: "must read 0", count: true},
	{name: "replica.resets", unit: "count", better: "lower", layer: "replica", moves: "must read 0", count: true},
	{name: "replica.divergence", unit: "count", better: "lower", layer: "replica", moves: "must read 0", count: true},

	{name: "process.gc_cycles", unit: "count", better: "lower", layer: "process", moves: "tail.apply_p99_ms everywhere"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower", layer: "process", moves: "tail.apply_p99_ms everywhere"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower", layer: "process", moves: "above 1 ms the open-loop reader was starved and tail.read_* is suspect"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "process", moves: "traced ÷ untraced tail.apply_p50_ms; says how far ladder times may be trusted"},
}
