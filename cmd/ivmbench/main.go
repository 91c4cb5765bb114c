// Command ivmbench regenerates every experiment table of the
// reproduction (DESIGN.md E1–E12; E11 lives in the property tests).
//
// Usage:
//
//	ivmbench [-scale smoke|default|large] [-exp E6[,E8,...]]
//
// Each table names the paper claim it checks; the shapes (who wins, by
// roughly what factor, where crossovers fall) are the reproduction
// target, not absolute numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ivm/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: smoke, default, or large")
	expFlag := flag.String("exp", "", "comma-separated experiment ids to run (default: all)")
	metricsPath := flag.String("metrics", "", `write a metrics exposition for the run to this file ("-" for stdout)`)
	readersPath := flag.String("readers", "", "run the snapshot-reader latency benchmark and write its JSON report to this path (e.g. BENCH_readers.json), then exit")
	baselinePath := flag.String("baseline", "", "with -readers: compare the fresh report against this baseline JSON and exit nonzero on regression")
	tolerance := flag.Float64("tolerance", 3.0, "with -baseline: allowed regression multiplier (p99 may grow to tolerance x baseline; coalesce ratio may shrink to baseline / tolerance)")
	serverTarget := flag.String("server", "", `run the served-load benchmark against an ivmd base URL, or "self" to boot an in-process server, then exit`)
	serverOut := flag.String("server-out", "BENCH_server.json", "with -server: write the served-load JSON report to this path")
	faultsFrac := flag.Float64("faults", 0, "run the fault-injection benchmark at this fault fraction in (0,1]: keyed applies retried through a faultnet proxy, then exit")
	faultsOut := flag.String("faults-out", "BENCH_faults.json", "with -faults: write the fault-injection JSON report to this path")
	flag.Parse()

	if *faultsFrac != 0 {
		target := *serverTarget
		if target == "" {
			target = "self"
		}
		if err := writeFaultsReport(*faultsOut, target, *scaleFlag, *faultsFrac); err != nil {
			fmt.Fprintf(os.Stderr, "ivmbench: fault-injection benchmark: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *serverTarget != "" {
		if err := writeServerLoadReport(*serverOut, *serverTarget, *scaleFlag); err != nil {
			fmt.Fprintf(os.Stderr, "ivmbench: server benchmark: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *readersPath != "" {
		rep, err := writeReadersReport(*readersPath, *scaleFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivmbench: readers benchmark: %v\n", err)
			os.Exit(1)
		}
		if *baselinePath != "" {
			if err := compareReadersBaseline(rep, *baselinePath, *tolerance); err != nil {
				fmt.Fprintf(os.Stderr, "ivmbench: baseline guard: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *metricsPath != "" {
		experiments.EnableMetrics()
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "smoke":
		scale = experiments.SmokeScale
	case "default":
		scale = experiments.DefaultScale
	case "large":
		scale = experiments.Scale{Nodes: 600, Edges: 4200, Trials: 5}
	default:
		fmt.Fprintf(os.Stderr, "ivmbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	runners := map[string]func(experiments.Scale) *experiments.Table{
		"E1": experiments.RunE1, "E2": experiments.RunE2, "E3": experiments.RunE3,
		"E4": experiments.RunE4, "E5": experiments.RunE5, "E6": experiments.RunE6,
		"E7": experiments.RunE7, "E8": experiments.RunE8, "E9": experiments.RunE9,
		"E10": experiments.RunE10, "E12": experiments.RunE12,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12"}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "ivmbench: unknown experiment %q (E11 is test-only: go test -run TestProperty)\n", id)
				os.Exit(2)
			}
			want[id] = true
		}
	}

	fmt.Printf("ivm experiment harness — scale=%s (nodes=%d edges=%d trials=%d)\n\n",
		*scaleFlag, scale.Nodes, scale.Edges, scale.Trials)
	for _, id := range order {
		if len(want) > 0 && !want[id] {
			continue
		}
		table := runners[id](scale)
		fmt.Println(table.Render())
	}
	fmt.Println("E11 (Lemma 4.1 / Theorem 4.1 / Theorem 7.1 equivalence properties) runs as:")
	fmt.Println("  go test -run 'TestProperty' .")

	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath); err != nil {
			fmt.Fprintf(os.Stderr, "ivmbench: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeMetrics dumps the cross-experiment metrics snapshot as
// "name value" lines.
func writeMetrics(path string) error {
	snap := experiments.MetricsSnapshot()
	if path == "-" {
		fmt.Println("-- metrics --")
		_, err := snap.WriteTo(os.Stdout)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := snap.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
