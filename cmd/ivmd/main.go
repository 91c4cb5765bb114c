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
	"log"
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
	quiet := flag.Bool("quiet", false, "suppress per-request logging (lifecycle events still log)")
	followURL := flag.String("follow", "", "follow as a read replica: comma-separated cluster URLs, first is the upstream (e.g. http://127.0.0.1:7199)")
	promoteURL := flag.String("promote", "", "client mode: promote the follower at this URL to primary and exit")
	flag.Parse()

	if *promoteURL != "" {
		return promote(*promoteURL)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	logf := logger.Printf
	if *quiet {
		logf = func(format string, args ...any) {
			// Lifecycle lines keep flowing; per-request lines are dropped.
			if strings.HasPrefix(format, "ivmd: %s %s ->") {
				return
			}
			logger.Printf(format, args...)
		}
	}

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

	if *followURL != "" {
		if *storeDir != "" || *programPath != "" || *dataPath != "" {
			return fmt.Errorf("-follow is exclusive with -store/-program/-data: a follower's state comes from the primary")
		}
		seeds := strings.Split(*followURL, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		return runFollower(seeds, followerConfig{
			addr:            *addr,
			requestTimeout:  *requestTimeout,
			maxBody:         *maxBody,
			subBuffer:       *subBuffer,
			sessionTTL:      *sessionTTL,
			shutdownTimeout: *shutdownTimeout,
			engineOpts:      opts,
			logf:            logf,
		})
	}

	var views *ivm.Views
	if *storeDir != "" {
		v, info, err := ivm.OpenStore(*storeDir, func() (*ivm.Views, error) {
			return buildViews(*programPath, *dataPath, opts)
		}, opts...)
		if err != nil {
			return err
		}
		logf("ivmd: store %s: %s", *storeDir, info)
		views = v
	} else {
		v, err := buildViews(*programPath, *dataPath, opts)
		if err != nil {
			return err
		}
		logf("ivmd: memory-only (no -store): applies are not durable")
		views = v
	}
	logf("ivmd: strategy=%v semantics=%v rules=%d version=%d",
		views.Strategy(), views.Semantics(), len(views.Program().Rules), views.Snapshot().Version())

	srv := server.New(views, server.Options{
		Addr:             *addr,
		RequestTimeout:   *requestTimeout,
		MaxBodyBytes:     *maxBody,
		SubscriberBuffer: *subBuffer,
		SessionTTL:       *sessionTTL,
		OwnViews:         true,
		Logf:             logf,
	})
	if err := srv.Start(); err != nil {
		views.Close()
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	logf("ivmd: received %v, shutting down", got)
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	return srv.Shutdown(ctx)
}

// followerConfig carries the serving flags into the -follow path.
type followerConfig struct {
	addr            string
	requestTimeout  time.Duration
	maxBody         int64
	subBuffer       int
	sessionTTL      time.Duration
	shutdownTimeout time.Duration
	engineOpts      []ivm.Option
	logf            func(format string, args ...any)
}

// runFollower bootstraps a replica from the first seed and serves its
// views until a signal or a terminal replication error — or, after a
// promotion, serves on as the cluster's new primary.
func runFollower(seeds []string, cfg followerConfig) error {
	// The serving layer comes up after the replica, but leader changes
	// fire from the tail goroutine; route them through an atomic pointer.
	var srvPtr atomic.Pointer[server.Server]
	rep, err := replica.Start(seeds[0], replica.Options{
		ExtraOptions: cfg.engineOpts,
		Seeds:        seeds,
		OnLeaderChange: func(u string) {
			if s := srvPtr.Load(); s != nil {
				s.SetLeaderURL(u)
			}
		},
		Logf: cfg.logf,
	})
	if err != nil {
		return err
	}
	views := rep.Views()
	cfg.logf("ivmd: following %s from version %d (epoch %d, strategy=%v semantics=%v rules=%d)",
		rep.LeaderURL(), rep.Applied(), rep.Epoch(), views.Strategy(), views.Semantics(), len(views.Program().Rules))

	// promoted flips before rep.Promote cancels the tail, so the main
	// select below can tell a promotion from a replication failure.
	var promoted atomic.Bool
	srv := server.New(views, server.Options{
		Addr:             cfg.addr,
		RequestTimeout:   cfg.requestTimeout,
		MaxBodyBytes:     cfg.maxBody,
		SubscriberBuffer: cfg.subBuffer,
		SessionTTL:       cfg.sessionTTL,
		OwnViews:         true,
		LeaderURL:        rep.LeaderURL(),
		Promote: func() (uint64, error) {
			promoted.Store(true)
			epoch, err := rep.Promote()
			if err != nil {
				promoted.Store(false)
			}
			return epoch, err
		},
		ExtraMetrics: []*metrics.Registry{rep.Registry()},
		Logf:         cfg.logf,
	})
	if err := srv.Start(); err != nil {
		rep.Stop()
		views.Close()
		return err
	}
	srvPtr.Store(srv)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var repErr error
	select {
	case got := <-sig:
		cfg.logf("ivmd: received %v, shutting down", got)
	case <-rep.Done():
		if promoted.Load() {
			// Promotion retired the tail loop on purpose; this node now
			// leads the cluster and keeps serving until a signal.
			got := <-sig
			cfg.logf("ivmd: received %v, shutting down", got)
		} else {
			repErr = rep.Err()
			cfg.logf("ivmd: replication ended: %v", repErr)
		}
	}
	// Stop replication before Shutdown closes the views underneath it.
	rep.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
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
