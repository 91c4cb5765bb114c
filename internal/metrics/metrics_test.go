package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Add(-10) // ignored: counters are monotonic
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("c") != c {
		t.Fatal("same name must return the same counter")
	}
}

func TestGaugeSet(t *testing.T) {
	g := NewRegistry().Gauge("g")
	g.Set(42)
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d, want -7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Microsecond)      // bucket 0 (<= 1ms)
	h.Observe(time.Millisecond)      // bucket 0 (bound inclusive)
	h.Observe(10 * time.Millisecond) // bucket 1
	h.Observe(time.Minute)           // overflow
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := time.Microsecond + time.Millisecond + 10*time.Millisecond + time.Minute
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	got := []int64{h.counts[0].Load(), h.counts[1].Load(), h.counts[2].Load()}
	if got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("bucket counts = %v, want [2 1 1]", got)
	}
}

func TestSnapshotIsImmutableCopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Gauge("b").Set(2)
	r.Histogram("h").Observe(time.Millisecond)
	s := r.Snapshot()
	r.Counter("a").Add(10)
	r.Histogram("h").Observe(time.Second)
	if s.Counter("a") != 1 || s.Gauge("b") != 2 {
		t.Fatalf("snapshot mutated: a=%d b=%d", s.Counter("a"), s.Gauge("b"))
	}
	if hs := s.Histograms["h"]; hs.Count != 1 {
		t.Fatalf("histogram snapshot mutated: count=%d", hs.Count)
	}
	if s.Counter("missing") != 0 || s.Gauge("missing") != 0 {
		t.Fatal("absent series must read 0")
	}
}

func TestWriteToExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total").Add(3)
	r.Counter("alpha_total").Add(1)
	r.Gauge("mid_gauge").Set(9)
	r.Histogram("lat_seconds").Observe(5 * time.Microsecond)
	r.Histogram("lat_seconds").Observe(time.Hour)

	var b strings.Builder
	if _, err := r.Snapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")

	// Scalars first, sorted.
	if lines[0] != "alpha_total 1" || lines[1] != "mid_gauge 9" || lines[2] != "zeta_total 3" {
		t.Fatalf("scalar lines: %v", lines[:3])
	}
	for _, want := range []string{
		"lat_seconds_count 2",
		"lat_seconds_le_10µs 1", // cumulative
		"lat_seconds_le_10s 1",  // still cumulative below overflow
		"lat_seconds_le_inf 2",  // overflow closes the distribution
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared_total").Inc()
				r.Histogram("shared_seconds").Observe(time.Duration(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("shared_seconds").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestFuncTracerNilCallbacks(t *testing.T) {
	// A FuncTracer with no callbacks must be safe to drive.
	ft := &FuncTracer{}
	ft.StratumDone(1, time.Millisecond)
	ft.RuleEvaluated("p", 3)

	var events []string
	ft2 := &FuncTracer{
		OnRuleEvaluated: func(rule string, n int) { events = append(events, "rule:"+rule) },
	}
	ft2.RuleEvaluated("p", 2)
	ft2.StratumDone(1, 0) // nil callback skipped
	if len(events) != 1 || events[0] != "rule:p" {
		t.Fatalf("events = %v", events)
	}
}

func TestGaugeAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("active")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge after +3 -1 = %d, want 2", got)
	}
	var nilGauge *Gauge
	nilGauge.Add(5) // must not panic
}
