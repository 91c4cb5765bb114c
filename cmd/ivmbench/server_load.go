package main

// The served-load benchmark: drives an ivmd HTTP endpoint with
// closed-loop appliers, open-loop readers, and a streaming subscriber,
// and reports end-to-end latencies as BENCH_server.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivm/client"
)

type serverLoadReport struct {
	Target     string `json:"target"` // the URL load-tested
	Appliers   int    `json:"appliers"`
	Readers    int    `json:"readers"`
	Duration   string `json:"duration"`
	OpenLoopMS int    `json:"reader_interval_millis"`

	Applies       int     `json:"applies"`
	ApplyP50Nanos int64   `json:"apply_p50_nanos"`
	ApplyP99Nanos int64   `json:"apply_p99_nanos"`
	ApplyPerSec   float64 `json:"applies_per_sec"`

	Reads        int   `json:"reads"`
	ReadP50Nanos int64 `json:"read_p50_nanos"`
	ReadP99Nanos int64 `json:"read_p99_nanos"`

	SubEvents     int64  `json:"sub_events"`
	SubMaxVersion uint64 `json:"sub_max_version"`
	FinalVersion  uint64 `json:"final_version"`
}

func pctNanos(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[int(p*float64(len(xs)-1))]
}

// runServerLoad drives target for d. Appliers are closed-loop (next
// request issued when the ack returns — server latency is the pacing);
// readers are open-loop on a fixed interval, measuring from scheduled
// arrival to avoid coordinated omission.
func runServerLoad(target string, appliers, readers int, d time.Duration) (*serverLoadReport, error) {
	c := client.New(target, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if _, err := c.Info(ctx); err != nil {
		return nil, fmt.Errorf("probing %s: %w", target, err)
	}

	sub, err := c.Subscribe(ctx, nil, 8192)
	if err != nil {
		return nil, fmt.Errorf("subscribing: %w", err)
	}
	var subEvents int64
	var subMaxVersion atomic.Uint64
	var subWg sync.WaitGroup
	subWg.Add(1)
	go func() {
		defer subWg.Done()
		for ev := range sub.Events() {
			if ev.Hello {
				continue
			}
			atomic.AddInt64(&subEvents, 1)
			subMaxVersion.Store(ev.Version)
		}
	}()

	var stop atomic.Bool
	var wg sync.WaitGroup
	applyNanos := make([][]int64, appliers)
	for a := 0; a < appliers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// Insert-then-delete keeps the store near its initial size
				// while every apply still changes the view: unique endpoints
				// mean each insert derives (and each delete retracts) a fresh
				// hop tuple, so subscribers see a delta per apply.
				mid := fmt.Sprintf("b%d_%d", a, i)
				ins := fmt.Sprintf("+link(s_%s,%s). +link(%s,d_%s).", mid, mid, mid, mid)
				del := fmt.Sprintf("-link(s_%s,%s). -link(%s,d_%s).", mid, mid, mid, mid)
				for _, s := range []string{ins, del} {
					t0 := time.Now()
					if _, err := c.Apply(ctx, s); err != nil {
						if !stop.Load() {
							panic(fmt.Sprintf("apply: %v", err))
						}
						return
					}
					applyNanos[a] = append(applyNanos[a], time.Since(t0).Nanoseconds())
				}
			}
		}(a)
	}

	const readInterval = 5 * time.Millisecond
	readNanos := make([][]int64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + r)))
			start := time.Now()
			for i := 0; !stop.Load(); i++ {
				sched := start.Add(time.Duration(i) * readInterval)
				if now := time.Now(); now.Before(sched) {
					time.Sleep(sched.Sub(now))
				}
				var err error
				if rng.Intn(2) == 0 {
					_, err = c.Count(ctx, "hop")
				} else {
					_, err = c.Query(ctx, "hop(a,X)")
				}
				if err != nil {
					if !stop.Load() {
						panic(fmt.Sprintf("read: %v", err))
					}
					return
				}
				readNanos[r] = append(readNanos[r], time.Since(sched).Nanoseconds())
			}
		}(r)
	}

	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	cancel()
	sub.Close()
	subWg.Wait()

	var applies, reads []int64
	for _, s := range applyNanos {
		applies = append(applies, s...)
	}
	for _, s := range readNanos {
		reads = append(reads, s...)
	}

	info, err := client.New(target, nil).Info(context.Background())
	finalVersion := uint64(0)
	if err == nil {
		finalVersion = info.Version
	}

	rep := &serverLoadReport{
		Target:     target,
		Appliers:   appliers,
		Readers:    readers,
		Duration:   d.String(),
		OpenLoopMS: int(readInterval / time.Millisecond),

		Applies:       len(applies),
		ApplyP50Nanos: pctNanos(applies, 0.50),
		ApplyP99Nanos: pctNanos(applies, 0.99),
		ApplyPerSec:   float64(len(applies)) / d.Seconds(),

		Reads:        len(reads),
		ReadP50Nanos: pctNanos(reads, 0.50),
		ReadP99Nanos: pctNanos(reads, 0.99),

		SubEvents:     atomic.LoadInt64(&subEvents),
		SubMaxVersion: subMaxVersion.Load(),
		FinalVersion:  finalVersion,
	}
	return rep, nil
}

// writeServerLoadReport runs the served-load benchmark against the ivmd
// at target and writes the JSON report.
func writeServerLoadReport(path, target, scale string) error {
	appliers, readers, dur := 8, 4, 2*time.Second
	if scale == "smoke" {
		appliers, readers, dur = 4, 2, 500*time.Millisecond
	}

	rep, err := runServerLoad(target, appliers, readers, dur)
	if err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("served load against %s (%d closed-loop appliers, %d open-loop readers, %s):\n",
		target, rep.Appliers, rep.Readers, rep.Duration)
	fmt.Printf("  apply: p50 %8dns  p99 %8dns  (%d acks, %.0f/s)\n",
		rep.ApplyP50Nanos, rep.ApplyP99Nanos, rep.Applies, rep.ApplyPerSec)
	fmt.Printf("  read:  p50 %8dns  p99 %8dns  (%d reads)\n",
		rep.ReadP50Nanos, rep.ReadP99Nanos, rep.Reads)
	fmt.Printf("  subscriber: %d events, max version %d (server final version %d)\n",
		rep.SubEvents, rep.SubMaxVersion, rep.FinalVersion)
	if rep.SubEvents == 0 && rep.Applies > 0 {
		return fmt.Errorf("subscriber saw no events despite %d acked applies", rep.Applies)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
