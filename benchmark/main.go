// Command benchmark is the repository's one layered benchmark: four
// seeded workloads over the apply path and the read path, end-to-end
// metrics with regression bounds, per-layer metrics measured from
// outside the program, an oracle on every workload, and a layer ladder
// for the traced run. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// outDir is where report.json and the span files go. The benchmark may
// write only inside its checkout, so the default store directory is
// under it too and not, as the issue had it, under os.TempDir.
const outDir = "benchmark/out"

// env is where and how a report was measured.
type env struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	StoreDir    string  `json:"store_dir"`
	StoreFS     string  `json:"store_fs"`
	FsyncPolicy string  `json:"fsync_policy"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Smoke       bool    `json:"smoke"`
}

// report is the JSON summary a run writes. Claim is always null: the
// benchmark measures, it does not claim.
type report struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
	Claim     *string   `json:"claim"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// fsName names the filesystem holding dir, which decides what an fsync
// costs.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "run length: each workload times its frozen ops-per-second × this many ops (a traced run splits them over its phases)")
	trace := fs.Int("trace", 0, "1 for the traced run: layer ladder, direct kernels and per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs, for tests")
	dir := fs.String("dir", "", "directory for store files (default: a fresh directory under "+outDir+", removed on success)")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1, not %d", *trace)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two report files")
		}
		return compareReports(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	var todo []*workloadDef
	if *workload == "all" {
		todo = workloads
	} else if w := workloadByName(*workload); w != nil {
		todo = []*workloadDef{w}
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}

	// One process holds primary, follower and generators; it gets every
	// processor the host has, and says so in the report.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	storeDir := *dir
	if storeDir == "" {
		d, err := os.MkdirTemp(outDir, "run-*")
		if err != nil {
			return err
		}
		storeDir = d
	} else if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, dir: storeDir, outDir: outDir, nproc: nproc}
	rep := &report{Env: env{
		Commit: commit(), GoVersion: runtime.Version(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		StoreDir: storeDir, StoreFS: fsName(storeDir), FsyncPolicy: "fsync per apply, no group commit",
		Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Smoke: *smoke,
	}}
	fmt.Printf("# commit %s %s nproc %d GOMAXPROCS %d store %s (%s) %s seed %d\n",
		rep.Env.Commit, rep.Env.GoVersion, nproc, rep.Env.GOMAXPROCS, storeDir, rep.Env.StoreFS, rep.Env.FsyncPolicy, *seed)

	ctx := context.Background()
	for _, w := range todo {
		res, err := measure(ctx, w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, res)
		printResult(res)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}

	failed := printVerdict(rep, *workload == "all")
	if failed > 0 {
		return fmt.Errorf("%d ops failed; the store directory %s is kept", failed, storeDir)
	}
	if *dir == "" {
		return os.RemoveAll(storeDir)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printResult prints every metric of one workload as
// `workload metric value unit`, end-to-end first, then sample counts.
func printResult(r *result) {
	fmt.Printf("%s stream_sha256 %s\n", r.Workload, r.StreamSHA256)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			fmt.Printf("%s %s %.6g %s\n", r.Workload, d.name, r.Metrics[d.name], d.unit)
		}
	}
	names := make([]string, 0, len(r.Samples))
	for name := range r.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s samples.%s %d count\n", r.Workload, name, r.Samples[name])
	}
	fmt.Printf("%s ops_attempted %d count\n", r.Workload, r.Attempted)
	fmt.Printf("%s ops_failed %d count\n", r.Workload, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("# %s FAILED: %s\n", r.Workload, e)
	}
	for _, n := range r.Notes {
		fmt.Printf("# %s note: %s\n", r.Workload, n)
	}
}

// printVerdict prints the result line the driver reads — the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one —
// and returns how many ops failed. With every workload in one run the
// metric names are prefixed by the workload's.
func printVerdict(rep *report, prefix bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rep.Env.Traced {
		defs = perLayer
	}
	verdict := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, r := range rep.Workloads {
		verdict.Attempted += r.Attempted
		verdict.Failed += r.Failed
		for _, d := range defs {
			name := d.name
			if prefix {
				name = r.Workload + "/" + name
			}
			verdict.Metrics[name] = value{r.Metrics[d.name], d.unit}
		}
	}
	verdict.Correct = verdict.Failed == 0
	line, _ := json.Marshal(verdict) // plain numbers and strings cannot fail to encode
	fmt.Println(string(line))
	return verdict.Failed
}
