// Package experiments builds the workloads, engines and measurement
// tables for the reproduction experiments E1–E12 listed in DESIGN.md.
// Every table/claim of the paper's evaluation maps to one Run* function;
// cmd/ivmbench prints them and the root bench_test.go benchmarks reuse
// the same scenario builders.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ivm/internal/baseline/pf"
	"ivm/internal/core/counting"
	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/metrics"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/workload"
)

// Table is one experiment's output: the rows the paper-equivalent
// table/figure would show.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's claim this table checks
	Header []string
	Rows   [][]string
}

// Render formats the table for terminals.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, w := range widths {
		sb.WriteString(strings.Repeat("-", w) + "  ")
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// metricsReg, when non-nil, is threaded into every engine the helper
// constructors below build, so one harness run accumulates a single
// cross-experiment metrics snapshot.
var metricsReg *metrics.Registry

// EnableMetrics turns on metrics collection for engines built after the
// call and returns the shared registry. Idempotent.
func EnableMetrics() *metrics.Registry {
	if metricsReg == nil {
		metricsReg = metrics.NewRegistry()
	}
	return metricsReg
}

// MetricsSnapshot returns the current state of the shared registry
// (empty if EnableMetrics was never called).
func MetricsSnapshot() metrics.Snapshot {
	return metricsReg.Snapshot()
}

// MustRules parses a rule program, panicking on error (experiment
// programs are constants).
func MustRules(src string) *datalog.Program {
	prog, err := parser.ParseRules(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// Programs used across the experiments.
const (
	HopProgram = `hop(X,Y) :- link(X,Z), link(Z,Y).`

	TriHopProgram = `
		hop(X,Y)     :- link(X,Z), link(Z,Y).
		tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
	`

	OnlyTriHopProgram = `
		hop(X,Y)          :- link(X,Z), link(Z,Y).
		tri_hop(X,Y)      :- hop(X,Z), link(Z,Y).
		only_tri_hop(X,Y) :- tri_hop(X,Y), !hop(X,Y).
	`

	MinCostHopProgram = `
		hop(S,D,C1+C2)      :- link(S,I,C1), link(I,D,C2).
		min_cost_hop(S,D,M) :- groupby(hop(S,D,C), [S,D], M = min(C)).
	`

	TCProgram = `
		tc(X,Y) :- link(X,Y).
		tc(X,Y) :- tc(X,Z), link(Z,Y).
	`
)

// LinkDB wraps a link relation in a DB.
func LinkDB(link *relation.Relation) *eval.DB {
	db := eval.NewDB()
	db.Put("link", link)
	return db
}

// timeIt runs f once and returns the wall-clock duration.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// medianOf runs f trials times on fresh state from setup and reports the
// median duration. setup must return an independent f each time.
func medianOf(trials int, setup func() func() error) (time.Duration, error) {
	durs := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		f := setup()
		d, err := timeIt(f)
		if err != nil {
			return 0, err
		}
		durs = append(durs, d)
	}
	for i := 1; i < len(durs); i++ {
		for j := i; j > 0 && durs[j] < durs[j-1]; j-- {
			durs[j], durs[j-1] = durs[j-1], durs[j]
		}
	}
	return durs[len(durs)/2], nil
}

func dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

func ratio(a, b time.Duration) string {
	if a == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(b)/float64(a))
}

// CountingEngine materializes prog over link with the given semantics.
func CountingEngine(progSrc string, db *eval.DB, sem eval.Semantics) *dred.Engine {
	e, err := counting.NewWithConfig(MustRules(progSrc), db,
		counting.Config{Semantics: sem, Metrics: metricsReg})
	if err != nil {
		panic(err)
	}
	return e
}

// DRedEngine materializes prog over db.
func DRedEngine(progSrc string, db *eval.DB) *dred.Engine {
	e, err := dred.NewWithConfig(MustRules(progSrc), db, dred.Config{Metrics: metricsReg})
	if err != nil {
		panic(err)
	}
	return e
}

// RecomputeEngine materializes prog over db, to be re-evaluated from
// scratch on every Apply.
func RecomputeEngine(progSrc string, db *eval.DB, sem eval.Semantics) *dred.Engine {
	e, err := dred.NewWithConfig(MustRules(progSrc), db,
		dred.Config{Algorithm: dred.Recompute, Semantics: sem, Metrics: metricsReg})
	if err != nil {
		panic(err)
	}
	return e
}

// PFEngine materializes prog over db.
func PFEngine(progSrc string, db *eval.DB, fragmentTuples bool) *pf.Engine {
	e, err := pf.NewWithConfig(MustRules(progSrc), db, pf.Config{Metrics: metricsReg})
	if err != nil {
		panic(err)
	}
	e.FragmentTuples = fragmentTuples
	return e
}

// Evaluate materializes a program once by counting (for E7-style
// measurements) and returns its relations. Without counts each derived
// relation is then collapsed to its set image: duplicate elimination
// without counting (Section 5).
func Evaluate(progSrc string, db *eval.DB, sem eval.Semantics, counts bool) *eval.DB {
	prog := MustRules(progSrc)
	e, err := dred.NewWithConfig(prog, db, dred.Config{Algorithm: dred.Counting, Semantics: sem})
	if err != nil {
		panic(err)
	}
	out, derived := eval.NewDB(), prog.DerivedPreds()
	for _, pred := range e.Preds() {
		if r := e.Relation(pred); !counts && derived[pred] {
			out.Put(pred, r.ToSet())
		} else {
			out.Put(pred, r)
		}
	}
	return out
}

// DeltaOf builds the map form of a link delta.
func DeltaOf(d *relation.Relation) map[string]*relation.Relation {
	return map[string]*relation.Relation{"link": d}
}

// Rng returns a deterministic RNG for an experiment.
func Rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Pct renders a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.2g%%", f*100) }

var _ = workload.RandomGraph // imported for the Run* files
