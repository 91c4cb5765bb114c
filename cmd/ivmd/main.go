// Command ivmd serves materialized views over the network: the
// incremental-maintenance engine (counting / DRed) behind an HTTP/JSON
// API with lock-free snapshot reads, snapshot-pinned repeatable-read
// sessions, and streaming change subscriptions.
//
// Usage:
//
//	ivmd -store DIR -program views.dl [-data facts.dl] [flags]
//	ivmd -follow http://primary:7199 [flags]
//
// With -store, every applied delta is fsynced to the write-ahead log
// before it is acknowledged, and SIGINT/SIGTERM trigger a graceful
// shutdown: in-flight applies drain, the store checkpoints, and the WAL
// closes — an acknowledged apply is never lost. Without -store the
// views are memory-only (useful for benchmarks and smoke tests).
//
// With -follow, the process runs as a read replica: it bootstraps from
// the primary's replication stream, tails committed deltas, and serves
// reads from its local views. Applies received by a follower are
// transparently forwarded to the current leader (Idempotency-Key and
// all) and the leader's ack relayed back; replica_lag_* gauges on
// /v1/metrics report how far behind the follower is. -follow takes a
// comma-separated list of cluster members: the first is the upstream to
// tail, and the whole list seeds leader re-resolution after a failover.
//
// ivmd -promote URL is a client-mode invocation: it POSTs /v1/promote
// to the follower at URL — which stops tailing, raises its fencing
// epoch, and starts accepting applies as the new primary — then exits.
// See docs/OPERATIONS.md for the full failover procedure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ivm"
	"ivm/client"
	"ivm/internal/metrics"
	"ivm/internal/replica"
	"ivm/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ivmd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7199", "HTTP listen address")
	programPath := flag.String("program", "", "file with view rules (and optionally facts)")
	dataPath := flag.String("data", "", "file with base facts")
	storeDir := flag.String("store", "", "managed store directory (checkpoints + WAL); empty = memory-only")
	strategyFlag := flag.String("strategy", "auto", "auto, counting, dred, or recompute")
	semanticsFlag := flag.String("semantics", "set", "set or duplicate")
	history := flag.Int("history", 0, "recent commits kept for apply dedup, replication, /v1/trace and subscription resume (0 = library default, 1024); size it above the commits that can land within a client's retry horizon or a follower's lag")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "per-request timeout for non-streaming endpoints")
	maxBody := flag.Int64("max-body", 4<<20, "maximum apply request body bytes")
	subBuffer := flag.Int("sub-buffer", 256, "per-subscriber live event buffer; a consumer that falls this far behind is evicted (how far back a ?from= resume reaches is -history's)")
	sessionTTL := flag.Duration("session-ttl", 5*time.Minute, "idle lifetime of snapshot-pinned sessions")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "graceful-shutdown drain budget")
	quiet := flag.Bool("quiet", false, "log at Info level: per-request Debug records are dropped, lifecycle events still log")
	followURL := flag.String("follow", "", "follow as a read replica: comma-separated cluster URLs, first is the upstream (e.g. http://127.0.0.1:7199)")
	promoteURL := flag.String("promote", "", "client mode: promote the follower at this URL to primary and exit")
	flag.Parse()

	if *promoteURL != "" {
		return promote(*promoteURL)
	}

	level := slog.LevelDebug
	if *quiet {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	strategy, err := ivm.ParseStrategy(*strategyFlag)
	if err != nil {
		return err
	}
	semantics, err := ivm.ParseSemantics(*semanticsFlag)
	if err != nil {
		return err
	}
	opts := []ivm.Option{ivm.WithStrategy(strategy), ivm.WithSemantics(semantics)}
	if *history > 0 {
		opts = append(opts, ivm.WithHistory(*history))
	}

	srvOpts := server.Options{
		Addr:             *addr,
		RequestTimeout:   *requestTimeout,
		MaxBodyBytes:     *maxBody,
		SubscriberBuffer: *subBuffer,
		SessionTTL:       *sessionTTL,
		OwnViews:         true,
		Logger:           logger,
	}
	// A follower's server comes up after its replica, but leader changes
	// fire from the tail goroutine; route them through an atomic pointer.
	// promoted flips before rep.Promote cancels the tail, so the select
	// below can tell a promotion from a replication failure.
	var srvPtr atomic.Pointer[server.Server]
	var promoted atomic.Bool
	var rep *replica.Replica
	var views *ivm.Views
	var info ivm.RecoveryInfo
	switch {
	case *followURL != "":
		if *storeDir != "" || *programPath != "" || *dataPath != "" {
			return fmt.Errorf("-follow is exclusive with -store/-program/-data: a follower's state comes from the primary")
		}
		seeds := strings.Split(*followURL, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		rep, err = replica.Start(seeds[0], replica.Options{
			ExtraOptions: opts,
			Seeds:        seeds,
			OnLeaderChange: func(u string) {
				if s := srvPtr.Load(); s != nil {
					s.SetLeaderURL(u)
				}
			},
			Logger: logger,
		})
		if err != nil {
			return err
		}
		views = rep.Views()
		srvOpts.LeaderURL = rep.LeaderURL()
		srvOpts.Promote = func() (uint64, error) {
			promoted.Store(true)
			epoch, err := rep.Promote()
			if err != nil {
				promoted.Store(false)
			}
			return epoch, err
		}
		srvOpts.ExtraMetrics = []*metrics.Registry{rep.Registry()}
	case *storeDir != "":
		views, info, err = ivm.OpenStore(*storeDir, func() (*ivm.Views, error) {
			return buildViews(*programPath, *dataPath, opts)
		}, opts...)
	default:
		views, err = buildViews(*programPath, *dataPath, opts)
	}
	if err != nil {
		return err
	}
	srv := server.New(views, srvOpts)
	switch {
	case *storeDir != "":
		srv.Info("ivmd: store", slog.String("dir", *storeDir), slog.String("recovery", info.String()))
	case rep == nil:
		srv.Info("ivmd: memory-only (no -store): applies are not durable")
	}
	if err := srv.Start(); err != nil {
		if rep != nil {
			rep.Stop()
		}
		views.Close()
		return err
	}
	srvPtr.Store(srv)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var repDone <-chan struct{} // nil, never ready, on a primary
	if rep != nil {
		repDone = rep.Done()
	}
	var repErr error
	select {
	case got := <-sig:
		srv.Info("ivmd: shutting down", slog.String("signal", got.String()))
	case <-repDone:
		if promoted.Load() {
			// Promotion retired the tail loop on purpose; this node now
			// leads the cluster and keeps serving until a signal.
			got := <-sig
			srv.Info("ivmd: shutting down", slog.String("signal", got.String()))
		} else {
			repErr = rep.Err()
			srv.Info("ivmd: replication ended", slog.Any("err", repErr))
		}
	}
	if rep != nil {
		rep.Stop() // before Shutdown closes the views underneath it
	}
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return repErr
}

// promote is the -promote client mode: ask the follower at base to take
// over as primary and report the outcome.
func promote(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := client.New(base, nil).Promote(ctx)
	if err != nil {
		return fmt.Errorf("promote %s: %w", base, err)
	}
	if res.Promoted {
		fmt.Printf("%s promoted: role=%s epoch=%d\n", base, res.Role, res.Epoch)
	} else {
		fmt.Printf("%s already role=%s epoch=%d\n", base, res.Role, res.Epoch)
	}
	return nil
}

func buildViews(programPath, dataPath string, opts []ivm.Option) (*ivm.Views, error) {
	if programPath == "" {
		return nil, fmt.Errorf("-program is required for an empty store")
	}
	programSrc, err := os.ReadFile(programPath)
	if err != nil {
		return nil, err
	}
	db := ivm.NewDatabase()
	if dataPath != "" {
		data, err := os.ReadFile(dataPath)
		if err != nil {
			return nil, err
		}
		if err := db.Load(string(data)); err != nil {
			return nil, err
		}
	}
	return db.Materialize(string(programSrc), opts...)
}
