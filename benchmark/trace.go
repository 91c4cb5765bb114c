package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ivm"
)

// span is one timed call recorded by the benchmark's own wrappers. The
// spans of one op share its id across rungs; a stratum span's parent is
// the apply span the engine was running under.
type span struct {
	Workload string `json:"workload"`
	Rung     string `json:"rung"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder was made
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the parent span, -1 for a root
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Apply spans are
// opened and closed by the driving goroutine; stratum spans arrive from
// whichever goroutine runs the maintainer (an HTTP handler, at the
// served rungs), hence the lock.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	cur   int // index of the open apply span, -1 if none
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now(), cur: -1}
}

func (r *recorder) begin(rung, op int) {
	r.mu.Lock()
	r.cur = len(r.spans)
	r.spans = append(r.spans, span{Workload: r.workload, Rung: rungNames[rung], Op: op, Name: "apply", Parent: -1})
	r.mu.Unlock()
}

func (r *recorder) end(t0, t1 time.Time) {
	r.mu.Lock()
	r.spans[r.cur].Start = int64(t0.Sub(r.epoch))
	r.spans[r.cur].End = int64(t1.Sub(r.epoch))
	r.cur = -1
	r.mu.Unlock()
}

// tracer is the FuncTracer the traced stacks install: each finished
// stratum becomes a child of the open apply span.
func (r *recorder) tracer() ivm.Tracer {
	return &ivm.FuncTracer{OnStratumDone: func(stratum int, d time.Duration) {
		now := time.Since(r.epoch)
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.cur < 0 {
			return // materialization and warm-up run outside any span
		}
		parent := r.spans[r.cur]
		r.spans = append(r.spans, span{
			Workload: r.workload, Rung: parent.Rung, Op: parent.Op,
			Name:  fmt.Sprintf("stratum.%d", stratum),
			Start: int64(now - d), End: int64(now), Parent: r.cur,
		})
	}}
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rungMedians returns each rung's median apply span and, for child
// spans, the median by (rung, name).
func rungMedians(spans []span) (apply map[string]time.Duration, child map[string]map[string]time.Duration) {
	roots := make(map[string]samples)
	kids := make(map[string]map[string]samples)
	for _, s := range spans {
		if s.Parent < 0 {
			roots[s.Rung] = append(roots[s.Rung], int64(s.dur()))
			continue
		}
		if kids[s.Rung] == nil {
			kids[s.Rung] = make(map[string]samples)
		}
		kids[s.Rung][s.Name] = append(kids[s.Rung][s.Name], int64(s.dur()))
	}
	apply = make(map[string]time.Duration)
	for rung, xs := range roots {
		apply[rung] = xs.median()
	}
	child = make(map[string]map[string]time.Duration)
	for rung, byName := range kids {
		child[rung] = make(map[string]time.Duration)
		for name, xs := range byName {
			child[rung][name] = xs.median()
		}
	}
	return apply, child
}

// selfTimes turns a ladder trace into per-layer self times. rungs lists
// the rungs bottom first. The bottom rung's self time is its median
// apply span; every other rung's is the median, over the ops both rungs
// ran, of (its span of the op − the span of the same op one rung
// below): what the layer that rung adds costs on an identical op. It
// may come out negative when the added layer is cheaper than the noise
// between two runs of the rung below.
func selfTimes(spans []span, rungs []string) map[string]time.Duration {
	byRung := make(map[string]map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		if byRung[s.Rung] == nil {
			byRung[s.Rung] = make(map[int]int64)
		}
		byRung[s.Rung][s.Op] = int64(s.dur())
	}
	self := make(map[string]time.Duration)
	for i, rung := range rungs {
		var xs samples
		for op, d := range byRung[rung] {
			if i == 0 {
				xs = append(xs, d)
			} else if below, ok := byRung[rungs[i-1]][op]; ok {
				xs = append(xs, d-below)
			}
		}
		self[rung] = xs.median()
	}
	return self
}
