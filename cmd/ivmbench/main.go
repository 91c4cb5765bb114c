// Command ivmbench drives served load against a running ivmd: closed-loop
// appliers, open-loop readers and a streaming subscriber over HTTP, and
// writes their end-to-end latencies as a JSON report.
//
// Usage:
//
//	ivmbench -server URL [-scale smoke|default] [-server-out out.json]
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
	serverTarget := flag.String("server", "", "base URL of the ivmd to load-test, e.g. http://127.0.0.1:7199")
	serverOut := flag.String("server-out", "BENCH_server.json", "write the served-load JSON report to this path")
	flag.Parse()

	if *scaleFlag != "smoke" && *scaleFlag != "default" {
		fmt.Fprintf(os.Stderr, "ivmbench: unknown scale %q (want smoke or default)\n", *scaleFlag)
		os.Exit(2)
	}
	if *serverTarget == "" {
		fmt.Fprintln(os.Stderr, "ivmbench: name the ivmd to load-test with -server URL")
		flag.Usage()
		os.Exit(2)
	}
	if err := writeServerLoadReport(*serverOut, *serverTarget, *scaleFlag); err != nil {
		fmt.Fprintf(os.Stderr, "ivmbench: server benchmark: %v\n", err)
		os.Exit(1)
	}
}
