package main

// The fault-injection benchmark behind `ivmbench -faults`: boots an
// in-process ivmd (or targets a running one with -server URL), puts the
// faultnet proxy between client and server, and drives keyed appliers
// through the client's retry/backoff path. The report (BENCH_faults.json)
// quantifies what the chaos gauntlet proves qualitatively: how often a
// fault forces a retry, how often the server's history of commits
// absorbs one, and — under duplicate semantics — that every acked apply
// landed exactly once.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/faultnet"
	"ivm/internal/server"
)

type faultsReport struct {
	Target        string  `json:"target"` // "self" or the URL driven
	Appliers      int     `json:"appliers"`
	PerApplier    int     `json:"applies_per_applier"`
	FaultFraction float64 `json:"fault_fraction"`
	Seed          int64   `json:"seed"`
	Duration      string  `json:"duration"`

	Acked        int64            `json:"acked"`
	ProxyConns   int64            `json:"proxy_conns"`
	ProxyFaulted int64            `json:"proxy_faulted"`
	FaultsByMode map[string]int64 `json:"faults_by_mode"`

	ClientRetries uint64 `json:"client_retries"`
	ClientDeduped uint64 `json:"client_deduped_acks"`
	ServerDedups  int64  `json:"server_apply_dedup_total"`
	SchedDedups   int64  `json:"sched_idem_dedup_total"`

	RetriesPerApply float64 `json:"retries_per_apply"`
	FaultRate       float64 `json:"observed_fault_rate"`

	// DoubleApplies counts tuples whose duplicate-semantics count came
	// back != 1 — any nonzero value is an exactly-once violation. -1
	// when the target is remote (its semantics are not under our
	// control, so the count check proves nothing).
	DoubleApplies int `json:"double_applies"`
}

// runFaultsBench drives appliers×perApplier keyed applies through a
// faultnet proxy at the given fault fraction, retrying every apply
// until it is acked or the timeout expires.
func runFaultsBench(target string, selfBoot bool, appliers, perApplier int, fraction float64, seed int64, timeout time.Duration) (*faultsReport, error) {
	proxy, err := faultnet.New(faultnet.Options{
		Target:   target,
		Fraction: fraction,
		Seed:     seed,
		Delay:    5 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	// Keep-alives off so every attempt opens a fresh (faultable)
	// connection; the header timeout turns a black-holed attempt into a
	// retry instead of a hang.
	hc := &http.Client{Transport: &http.Transport{
		DisableKeepAlives:     true,
		ResponseHeaderTimeout: 10 * time.Second,
	}}
	c := client.New(proxy.URL(), hc)
	c.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	script := func(a, i int) string { return fmt.Sprintf("+hit(a%d,s%d).", a, i) }
	key := func(a, i int) string { return fmt.Sprintf("bench-%d-%d", a, i) }

	start := time.Now()
	var acked atomic.Int64
	errs := make([]error, appliers)
	var wg sync.WaitGroup
	for a := 0; a < appliers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perApplier; i++ {
				// Outer retry-until-acked under a stable key: the inner
				// policy gives up after a few attempts, the key makes a
				// fresh round exactly-once anyway.
				for {
					if _, err := c.ApplyWithKey(ctx, key(a, i), script(a, i)); err == nil {
						acked.Add(1)
						break
					} else if ctx.Err() != nil {
						errs[a] = fmt.Errorf("applier %d apply %d: %w", a, i, err)
						return
					}
				}
			}
		}(a)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Read the server's dedup counters and verify exactly-once through
	// an unfaulted path.
	proxy.SetFraction(0)
	metrics, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("reading server metrics: %w", err)
	}
	doubles := -1
	if selfBoot {
		doubles = 0
		for a := 0; a < appliers; a++ {
			for i := 0; i < perApplier; i++ {
				cnt, err := c.Count(ctx, fmt.Sprintf("hit(a%d,s%d)", a, i))
				if err != nil {
					return nil, fmt.Errorf("verifying hit(a%d,s%d): %w", a, i, err)
				}
				if cnt.Count != 1 {
					doubles++
				}
			}
		}
	}

	pst, cst := proxy.Stats(), c.Stats()
	rep := &faultsReport{
		Appliers:      appliers,
		PerApplier:    perApplier,
		FaultFraction: fraction,
		Seed:          seed,
		Duration:      elapsed.String(),

		Acked:        acked.Load(),
		ProxyConns:   pst.Conns,
		ProxyFaulted: pst.Faulted,
		FaultsByMode: pst.ByMode,

		ClientRetries: cst.Retries,
		ClientDeduped: cst.Deduped,
		ServerDedups:  metrics["server_apply_dedup_total"],
		SchedDedups:   metrics["sched_idem_dedup_total"],

		DoubleApplies: doubles,
	}
	if rep.Acked > 0 {
		rep.RetriesPerApply = float64(cst.Retries) / float64(rep.Acked)
	}
	if pst.Conns > 0 {
		rep.FaultRate = float64(pst.Faulted) / float64(pst.Conns)
	}
	return rep, nil
}

// writeFaultsReport runs the fault-injection benchmark and writes the
// JSON report. target "self" boots an in-process memory-only server
// with duplicate semantics so a double apply is visible as a count of 2.
func writeFaultsReport(path, target, scale string, fraction float64) error {
	if fraction <= 0 || fraction > 1 {
		return fmt.Errorf("-faults fraction %v must be in (0, 1]", fraction)
	}
	appliers, perApplier := 16, 8
	if scale == "smoke" {
		appliers, perApplier = 8, 4
	}

	label := target
	selfBoot := target == "self"
	if selfBoot {
		db := ivm.NewDatabase()
		db.MustLoad(`hit(seed,seed).`)
		v, err := db.Materialize(`mirror(X,Y) :- hit(X,Y).`, ivm.WithSemantics(ivm.DuplicateSemantics))
		if err != nil {
			return err
		}
		srv := server.New(v, server.Options{OwnViews: true})
		if err := srv.Start(); err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		target = srv.Addr()
	} else {
		target = stripScheme(target)
	}

	rep, err := runFaultsBench(target, selfBoot, appliers, perApplier, fraction, 42, 2*time.Minute)
	if err != nil {
		return err
	}
	rep.Target = label

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("fault injection against %s (%d appliers × %d applies, fraction %.2f):\n",
		label, rep.Appliers, rep.PerApplier, rep.FaultFraction)
	fmt.Printf("  proxy:  %d conns, %d faulted (%.0f%%) %v\n",
		rep.ProxyConns, rep.ProxyFaulted, 100*rep.FaultRate, rep.FaultsByMode)
	fmt.Printf("  client: %d acked, %d retries (%.2f/apply), %d deduped acks\n",
		rep.Acked, rep.ClientRetries, rep.RetriesPerApply, rep.ClientDeduped)
	fmt.Printf("  server: %d HTTP dedups, %d scheduler dedups\n",
		rep.ServerDedups, rep.SchedDedups)
	if rep.DoubleApplies > 0 {
		return fmt.Errorf("%d tuples applied more than once — exactly-once violated", rep.DoubleApplies)
	}
	if want := int64(appliers * perApplier); rep.Acked != want {
		return fmt.Errorf("acked %d applies, want %d", rep.Acked, want)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// stripScheme converts an http base URL into the host:port faultnet
// dials.
func stripScheme(target string) string {
	for _, p := range []string{"http://", "https://"} {
		if len(target) > len(p) && target[:len(p)] == p {
			return target[len(p):]
		}
	}
	return target
}
