package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ivm/client"
)

// readInterval fixes the open-loop reader at 200 reads/s.
const readInterval = 5 * time.Millisecond

// rywGoal is the ground goal the read-your-writes read counts; any
// ground goal makes the follower wait for MinVersion and serve a read.
const rywGoal = "hop(n0,n1)"

// phase is what one timed phase of one stack measured.
type phase struct {
	applies samples    // call → ack of the stack's apply entry point
	byKind  [3]samples // the same, split by opKind
	ryw     samples    // primary ack → follower read at MinVersion returns
	visible samples    // primary ack → follower published the version
	reads   samples    // open-loop read latency from the due time
	late    samples    // how late the open-loop generator sent each read

	wall, cpu   time.Duration
	ctr         counters // registry deltas over the timed phase
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	scriptBytes int64

	attempted, failed int
	firstErr          error
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// clock lets the open-loop scheduler be tested without real sleeps.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends request i at start + i×interval for as long as
// more(due) holds, whether or not earlier requests were slow: a request
// that could not be sent on time is sent at once, and its latency still
// counts from when it was due, so a stall shows up in every request it
// delayed. late records how far behind its schedule the generator sent
// each request.
func openLoop(clk clock, start time.Time, interval time.Duration, more func(due time.Time) bool, do func(i int) error) (lat, late samples, errs []error) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !more(due) {
			return lat, late, errs
		}
		if now := clk.Now(); now.Before(due) {
			clk.Sleep(due.Sub(now))
		}
		sent := clk.Now()
		if err := do(i); err != nil {
			errs = append(errs, err)
			continue
		}
		lat = append(lat, int64(clk.Now().Sub(due)))
		late = append(late, int64(sent.Sub(due)))
	}
}

// read issues one read of the mix — straight at a snapshot when direct,
// else through the client and server — and checks the answer against
// the generator's model.
func (s *stack) read(ctx context.Context, i int, direct bool) error {
	r := s.reads[i%len(s.reads)]
	var got int64
	switch {
	case direct && r.ground:
		got = s.views.Snapshot().Count("hop", r.args...)
	case direct:
		res, err := s.views.Snapshot().Query(r.goal)
		if err != nil {
			return err
		}
		got = int64(len(res))
	case r.ground:
		res, err := s.cli.Count(ctx, r.goal)
		if err != nil {
			return err
		}
		got = res.Count
	default:
		res, err := s.cli.Query(ctx, r.goal)
		if err != nil {
			return err
		}
		got = int64(len(res.Results))
	}
	if got != r.want {
		return fmt.Errorf("read %s answered %d, the model says %d", r.goal, got, r.want)
	}
	return nil
}

// phaseOpts selects the optional extras of a timed phase.
type phaseOpts struct {
	// visible also times ack → follower publish (an extra wait before
	// each read-your-writes read; traced runs only).
	visible bool
	// spans, when non-nil, records one span per apply.
	spans *recorder
}

// runPhase drives the stack's op stream through its rung, closed loop,
// one caller: first warm ops (plans cached, indexes built, connections
// open; nothing recorded), then timed ops with the stopwatch on. At the
// workload's entry point it also runs what the workload runs beside
// the writer: the open-loop reader, the read-your-writes read.
func runPhase(ctx context.Context, s *stack, warm, timed int, opts phaseOpts) (*phase, error) {
	p := &phase{}
	entry := s.rung == s.w.top()
	follow := entry && s.fcli != nil

	step := func(record bool) {
		o := s.gen.next()
		call := s.call(ctx, &o)
		if opts.spans != nil && record {
			opts.spans.begin(s.rung, o.id)
		}
		t0 := time.Now()
		v, err := call()
		t1 := time.Now()
		if opts.spans != nil && record {
			opts.spans.end(t0, t1)
		}
		if !record {
			if err != nil {
				p.attempted++
				p.fail(fmt.Errorf("warm-up op %d: %w", o.id, err))
			}
		} else {
			p.attempted++
			if err != nil {
				p.fail(fmt.Errorf("op %d: %w", o.id, err))
			} else {
				d := int64(t1.Sub(t0))
				p.applies = append(p.applies, d)
				p.byKind[o.kind] = append(p.byKind[o.kind], d)
				p.scriptBytes += int64(len(o.script))
			}
		}
		if err != nil || !follow {
			return
		}
		if opts.visible {
			ok := s.rep.Views().WaitForVersion(v, 5*time.Second)
			if record && ok {
				p.visible = append(p.visible, int64(time.Since(t1)))
			}
		}
		res, rerr := s.fcli.CountOpts(ctx, rywGoal, client.ReadOptions{MinVersion: v})
		if !record {
			return
		}
		p.attempted++
		switch {
		case rerr != nil:
			p.fail(fmt.Errorf("read-your-writes after op %d: %w", o.id, rerr))
		case res.Version < v:
			p.fail(fmt.Errorf("follower answered at version %d, before the acked %d", res.Version, v))
		default:
			p.ryw = append(p.ryw, int64(time.Since(t1)))
		}
	}

	for i := 0; i < warm; i++ {
		step(false)
	}
	if entry && s.w.reader {
		if err := s.read(ctx, 0, false); err != nil { // opens the reader's connection
			return nil, err
		}
	}

	before, err := s.counters(ctx)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()

	var wg sync.WaitGroup
	var writerDone atomic.Bool
	var readErrs []error
	if entry && s.w.reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.reads, p.late, readErrs = openLoop(wallClock{}, start, readInterval,
				func(time.Time) bool { return !writerDone.Load() },
				func(i int) error { return s.read(ctx, i, false) })
		}()
	}
	for i := 0; i < timed; i++ {
		step(true)
	}
	writerDone.Store(true)
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	after, err := s.counters(ctx)
	if err != nil {
		return nil, err
	}
	p.ctr = after.sub(before)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.attempted += len(p.reads) + len(readErrs)
	for _, err := range readErrs {
		p.fail(err)
	}
	return p, nil
}

// heapLiveMB forces a collection and reads the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
