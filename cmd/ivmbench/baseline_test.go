package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, rep *readersReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReadersBaseline(t *testing.T) {
	base := &readersReport{
		Snapshot:      readerLatencies{P99Nanos: 1_000_000},
		CoalesceRatio: 2.0,
	}
	path := writeBaseline(t, base)

	ok := &readersReport{Snapshot: readerLatencies{P99Nanos: 2_500_000}, CoalesceRatio: 1.0}
	if err := compareReadersBaseline(ok, path, 3.0); err != nil {
		t.Fatalf("within-tolerance report rejected: %v", err)
	}

	slow := &readersReport{Snapshot: readerLatencies{P99Nanos: 3_100_000}, CoalesceRatio: 2.0}
	err := compareReadersBaseline(slow, path, 3.0)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("p99 regression not flagged: %v", err)
	}

	collapsed := &readersReport{Snapshot: readerLatencies{P99Nanos: 1_000_000}, CoalesceRatio: 0.5}
	if err := compareReadersBaseline(collapsed, path, 3.0); err == nil {
		t.Fatal("coalesce-ratio collapse not flagged")
	}

	if err := compareReadersBaseline(ok, path, 1.0); err == nil {
		t.Fatal("tolerance <= 1 must be rejected")
	}
	if err := compareReadersBaseline(ok, filepath.Join(t.TempDir(), "missing.json"), 3.0); err == nil {
		t.Fatal("missing baseline must be an error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := compareReadersBaseline(ok, bad, 3.0); err == nil {
		t.Fatal("unparseable baseline must be an error")
	}
}

// A baseline that never coalesced (ratio 1.0) must not flag runs that
// also sit near 1.0 — there was no headroom to lose.
func TestCompareReadersBaselineNoCoalesceHeadroom(t *testing.T) {
	base := &readersReport{Snapshot: readerLatencies{P99Nanos: 1_000_000}, CoalesceRatio: 1.0}
	path := writeBaseline(t, base)
	rep := &readersReport{Snapshot: readerLatencies{P99Nanos: 1_000_000}, CoalesceRatio: 0.0}
	if err := compareReadersBaseline(rep, path, 3.0); err != nil {
		t.Fatalf("no-headroom baseline flagged a collapse: %v", err)
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
