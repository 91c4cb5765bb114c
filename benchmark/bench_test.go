package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := samples{50, 10, 40, 20, 30} // unsorted on purpose
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 30}, {20, 10}, {21, 20}, {99, 50}, {100, 50}, {1, 10}} {
		if got := s.percentile(tc.p); got != tc.want {
			t.Errorf("p%v = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := (samples{}).percentile(50); got != 0 {
		t.Errorf("empty set reads %d, want 0", got)
	}
	// 200 samples: p99 is the 198th smallest, with two beyond it.
	var many samples
	for i := 1; i <= 200; i++ {
		many = append(many, int64(i))
	}
	if got := many.percentile(99); got != 198 {
		t.Errorf("p99 of 1..200 = %d, want 198", got)
	}
}

// fakeClock advances only when told to: Sleep jumps to the wake-up time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTimeAndReportsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const interval = 10 * time.Millisecond
	// Request 1 stalls for 25 ms; every other request takes 1 ms.
	service := func(i int) time.Duration {
		if i == 1 {
			return 25 * time.Millisecond
		}
		return time.Millisecond
	}
	lat, late, errs := openLoop(clk, start, interval,
		func(due time.Time) bool { return due.Before(start.Add(5 * interval)) },
		func(i int) error { clk.now = clk.now.Add(service(i)); return nil })
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	msOf := func(s samples) []int64 {
		out := make([]int64, len(s))
		for i, v := range s {
			out[i] = v / int64(time.Millisecond)
		}
		return out
	}
	// Due at 0,10,20,30,40. Request 1 is sent on time at 10 and returns
	// at 35, so request 2 (due 20) is sent 15 late and request 3 (due
	// 30) 6 late; their latencies count from the due time, not the send.
	if got, want := msOf(late), []int64{0, 0, 15, 6, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("lateness = %v ms, want %v", got, want)
	}
	if got, want := msOf(lat), []int64{1, 25, 16, 7, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("latency = %v ms, want %v", got, want)
	}
}

func TestSelfTimesOnHandBuiltTrace(t *testing.T) {
	root := func(rung string, op int, start, end int64) span {
		return span{Rung: rung, Op: op, Name: "apply", Start: start, End: end, Parent: -1}
	}
	spans := []span{
		root("engine", 0, 0, 10),
		root("engine", 1, 20, 40),
		root("engine", 2, 50, 80),
		root("engine", 3, 90, 190), // op 3 never ran at the rung above
		{Rung: "engine", Op: 0, Name: "stratum.1", Start: 2, End: 8, Parent: 0},
		{Rung: "engine", Op: 1, Name: "stratum.1", Start: 22, End: 30, Parent: 1},
		{Rung: "engine", Op: 2, Name: "stratum.1", Start: 52, End: 62, Parent: 2},
		root("views", 0, 100, 115), // +5 over the engine's span of op 0
		root("views", 1, 120, 147), // +7
		root("views", 2, 150, 189), // +9
		root("http", 1, 200, 327),  // +100 over views op 1; ops 0 and 2 missing
	}
	self := selfTimes(spans, []string{"engine", "views", "http"})
	// engine: median of {10, 20, 30, 100} by nearest rank = 20.
	if got := self["engine"]; got != 20 {
		t.Errorf("engine self = %d, want 20", got)
	}
	if got := self["views"]; got != 7 {
		t.Errorf("views self = %d, want 7 (median of 5, 7, 9)", got)
	}
	if got := self["http"]; got != 100 {
		t.Errorf("http self = %d, want 100", got)
	}
	apply, child := rungMedians(spans)
	if apply["views"] != 27 || child["engine"]["stratum.1"] != 8 {
		t.Errorf("medians: views apply %d (want 27), engine stratum.1 %d (want 8)", apply["views"], child["engine"]["stratum.1"])
	}
}

func TestStreamFingerprintDependsOnSeedAlone(t *testing.T) {
	for _, w := range workloads {
		a := streamSHA256(w.newGen(7, true), 64)
		b := streamSHA256(w.newGen(7, true), 64)
		c := streamSHA256(w.newGen(8, true), 64)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 hashed alike", w.name)
		}
	}
}

func TestLoadGuardRefusesMoreGeneratorsThanProcessors(t *testing.T) {
	served := workloadByName("served_small_durable")
	if err := checkLoad(served, 1); err == nil {
		t.Error("a writer and a reader on one processor were accepted")
	}
	if err := checkLoad(served, 2); err != nil {
		t.Errorf("two generators on two processors refused: %v", err)
	}
	if err := checkLoad(workloadByName("hop_batch_mem"), 1); err != nil {
		t.Errorf("one generator on one processor refused: %v", err)
	}
}

// TestSmokeRunPassesEveryCheck runs all four workloads traced at smoke
// scale, twice: every oracle must pass, every metric must be reported,
// the count metrics must repeat exactly, and the report compared with
// itself under the embedded baseline must pass -compare.
func TestSmokeRunPassesEveryCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads end to end")
	}
	dir := t.TempDir()
	run := func(w *workloadDef) *result {
		cfg := &config{seed: 5, trace: true, smoke: true, dir: dir, outDir: filepath.Join(dir, "out"), nproc: 2}
		res, err := measure(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %d of %d ops failed: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		return res
	}
	first := make(map[string]*result)
	rep := &report{}
	for _, w := range workloads {
		a, b := run(w), run(w)
		first[w.name] = a
		rep.Workloads = append(rep.Workloads, a)
		if a.Samples["applies"] != smokeOps/3 {
			t.Errorf("%s: %d timed applies reported, want a third of %d", w.name, a.Samples["applies"], smokeOps)
		}
		if a.StreamSHA256 != b.StreamSHA256 {
			t.Errorf("%s: the same seed hashed to %s then %s", w.name, a.StreamSHA256, b.StreamSHA256)
		}
		for _, d := range endToEnd {
			if a.Metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, d.name, a.Metrics[d.name])
			}
		}
		for _, d := range perLayer {
			if _, ok := a.Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
			}
			if d.count && a.Metrics[d.name] != b.Metrics[d.name] {
				t.Errorf("%s: count metric %s read %v then %v", w.name, d.name, a.Metrics[d.name], b.Metrics[d.name])
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	served := first["served_small_durable"]
	for _, name := range []string{"tail.read_p50_ms", "tail.reopen_s", "tail.apply_p50_ms", "storage.wal_us", "storage.fsyncs", "server.request_us", "snapshot.read_us"} {
		if served.Metrics[name] <= 0 {
			t.Errorf("served_small_durable: %s = %v", name, served.Metrics[name])
		}
	}
	if got := served.Samples["replayed"]; got != reopenTail(true) {
		t.Errorf("reopen replayed %d records, want %d", got, reopenTail(true))
	}
	base, err := loadBaseline()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compare(&out, rep, rep, base); err != nil {
		t.Errorf("a report compared with itself: %v\n%s", err, out.String())
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "alloc_kb_per_apply", better: "lower", bound: 0.10}
	higher := metricDef{name: "tail.applies_per_s", better: "higher", bound: 0.10}
	for _, tc := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 10, 10.9, 0.02, "same"},
		{lower, 10, 11.5, 0.02, "worse"},
		{lower, 10, 8.5, 0.02, "better"},
		{higher, 100, 85, 0.02, "worse"},
		{higher, 100, 115, 0.02, "better"},
		{lower, 10, 10.1, 0.30, "unresolved"},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b, tc.spread); got != tc.want {
			t.Errorf("%s %v → %v at spread %v: %s, want %s", tc.d.name, tc.a, tc.b, tc.spread, got, tc.want)
		}
	}
}

func TestCompareGatesWhatCalibrationResolved(t *testing.T) {
	// Memory repeated to 1 % at calibration, the median apply time to
	// 10 %, the 99th percentile only to 40 %; reads were never calibrated.
	base := &baseline{Workloads: map[string]map[string]baselineStat{"hop_batch_mem": {
		"alloc_kb_per_apply": {Range: 0.01}, "tail.apply_p50_ms": {Range: 0.10}, "tail.apply_p99_ms": {Range: 0.40},
	}}}
	rep := func(tuples, allocKB, p50, p99, read float64) *report {
		return &report{Workloads: []*result{{
			Workload: "hop_batch_mem", StreamSHA256: "x",
			Metrics: map[string]float64{"counting.delta_tuples": tuples, "alloc_kb_per_apply": allocKB,
				"tail.apply_p50_ms": p50, "tail.apply_p99_ms": p99, "tail.read_p50_ms": read},
		}}}
	}
	a := rep(670, 2000, 4, 30, 1)
	for _, tc := range []struct {
		name string
		b    *report
		want string // what the output must hold
		fail bool   // whether the comparison must fail
	}{
		{"identical", rep(670, 2000, 4, 30, 1), "same", false},
		{"a resolved timing twice as slow", rep(670, 2000, 8, 30, 1), "(bound 25%) worse", true},
		{"an unresolved timing twice as slow", rep(670, 2000, 4, 60, 1), "unresolved", false},
		{"an uncalibrated timing twice as slow", rep(670, 2000, 4, 30, 2), "unresolved", false},
		{"a count that moved", rep(671, 2000, 4, 30, 1), "DIFFERENT", true},
		{"memory per apply up by 30 %", rep(670, 2600, 4, 30, 1), "(bound 15%) worse", true},
	} {
		var out bytes.Buffer
		err := compare(&out, a, tc.b, base)
		if (err != nil) != tc.fail || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: err %v, want failure %v and output holding %q\n%s", tc.name, err, tc.fail, tc.want, out.String())
		}
	}
}

// TestBaselineResolvesTheMemoryMetrics keeps the gate from being empty:
// on every workload the memory metrics must have repeated, over the
// calibration runs, to well within their bounds.
func TestBaselineResolvesTheMemoryMetrics(t *testing.T) {
	base, err := loadBaseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			st, ok := base.Workloads[w.name][d.name]
			if !ok {
				t.Errorf("%s %s: not in baseline.json", w.name, d.name)
			} else if d.name != "setup_s" && st.Range > d.bound/3 {
				t.Errorf("%s %s: calibration runs lay %.3f apart, above a third of the bound %.2f", w.name, d.name, st.Range, d.bound)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, %d defined", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d] is %+v, the program has %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s: bound listed as %v, the program has %v", d.name, *m.Bound, d.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: a per-layer metric carries no bound in BENCHMARK.json", d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
