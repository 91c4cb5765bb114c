package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ivm"
	"ivm/internal/server"
)

// Smoke the served-load benchmark end to end against an in-process
// server: the report must land on disk with real traffic in it.
func TestWriteServerLoadReportSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("served-load smoke skipped in -short")
	}
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(v, server.Options{OwnViews: true, SubscriberBuffer: 8192})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	path := filepath.Join(t.TempDir(), "BENCH_server.json")
	if err := writeServerLoadReport(path, srv.URL(), "smoke"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep serverLoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Target != srv.URL() || rep.Applies == 0 || rep.Reads == 0 || rep.SubEvents == 0 {
		t.Fatalf("thin report: %+v", rep)
	}
	if rep.ApplyP99Nanos < rep.ApplyP50Nanos {
		t.Fatalf("p99 %d < p50 %d", rep.ApplyP99Nanos, rep.ApplyP50Nanos)
	}
}

// An unreachable target must fail the probe, not hang or panic.
func TestRunServerLoadUnreachable(t *testing.T) {
	if _, err := runServerLoad("http://127.0.0.1:1", 1, 1, 0); err == nil {
		t.Fatal("unreachable server must fail the initial probe")
	}
}

func TestPctNanos(t *testing.T) {
	if got := pctNanos(nil, 0.99); got != 0 {
		t.Fatalf("pctNanos(nil) = %d", got)
	}
	xs := []int64{5, 1, 3, 2, 4}
	if got := pctNanos(xs, 0.5); got != 3 {
		t.Fatalf("p50 of 1..5 = %d, want 3", got)
	}
	if got := pctNanos(xs, 1.0); got != 5 {
		t.Fatalf("p100 of 1..5 = %d, want 5", got)
	}
}
