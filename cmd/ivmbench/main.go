// Command ivmbench runs the serving-side load benchmarks: snapshot-reader
// latency under sustained applies (-readers), served load against an ivmd
// (-server) and keyed applies through injected faults (-faults).
//
// Usage:
//
//	ivmbench [-scale smoke|default] -readers out.json [-baseline ref.json]
//	ivmbench [-scale smoke|default] -server self|URL [-server-out out.json]
//	ivmbench [-scale smoke|default] -faults 0.25 [-server URL] [-faults-out out.json]
//
// The paper's experiments E1–E12 are Go benchmarks:
//
//	go test -bench 'E[0-9]' -run '^$' ./internal/experiments
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	scaleFlag := flag.String("scale", "default", "benchmark scale: smoke or default")
	readersPath := flag.String("readers", "", "run the snapshot-reader latency benchmark and write its JSON report to this path (e.g. BENCH_readers.json), then exit")
	baselinePath := flag.String("baseline", "", "with -readers: compare the fresh report against this baseline JSON and exit nonzero on regression")
	tolerance := flag.Float64("tolerance", 3.0, "with -baseline: allowed regression multiplier (p99 may grow to tolerance x baseline; coalesce ratio may shrink to baseline / tolerance)")
	serverTarget := flag.String("server", "", `run the served-load benchmark against an ivmd base URL, or "self" to boot an in-process server, then exit`)
	serverOut := flag.String("server-out", "BENCH_server.json", "with -server: write the served-load JSON report to this path")
	faultsFrac := flag.Float64("faults", 0, "run the fault-injection benchmark at this fault fraction in (0,1]: keyed applies retried through a faultnet proxy, then exit")
	faultsOut := flag.String("faults-out", "BENCH_faults.json", "with -faults: write the fault-injection JSON report to this path")
	flag.Parse()

	if *scaleFlag != "smoke" && *scaleFlag != "default" {
		fmt.Fprintf(os.Stderr, "ivmbench: unknown scale %q (want smoke or default)\n", *scaleFlag)
		os.Exit(2)
	}

	switch {
	case *faultsFrac != 0:
		target := *serverTarget
		if target == "" {
			target = "self"
		}
		if err := writeFaultsReport(*faultsOut, target, *scaleFlag, *faultsFrac); err != nil {
			fmt.Fprintf(os.Stderr, "ivmbench: fault-injection benchmark: %v\n", err)
			os.Exit(1)
		}

	case *serverTarget != "":
		if err := writeServerLoadReport(*serverOut, *serverTarget, *scaleFlag); err != nil {
			fmt.Fprintf(os.Stderr, "ivmbench: server benchmark: %v\n", err)
			os.Exit(1)
		}

	case *readersPath != "":
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

	default:
		fmt.Fprintln(os.Stderr, "ivmbench: name a benchmark: -readers, -server or -faults")
		flag.Usage()
		os.Exit(2)
	}
}
