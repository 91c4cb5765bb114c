// Command ivm materializes Datalog views over base facts and maintains
// them incrementally as deltas arrive — the counting algorithm for
// nonrecursive programs, DRed for recursive ones (Gupta, Mumick &
// Subrahmanian, SIGMOD 1993).
//
// Usage:
//
//	ivm -program views.dl [-data facts.dl] [flags] [delta files...]
//
// Each delta file (`+fact(...). -fact(...).`) is applied in order and the
// resulting view changes are printed. With -repl, an interactive session
// follows.
//
// Persistence: -store names a managed directory of checkpoints plus a
// checksummed write-ahead log; every applied delta is durably logged
// before it is acknowledged, and on restart the newest valid checkpoint
// is loaded and the log replayed. -snapshot alone is the single-file
// flow: load the file if it exists, save it on exit. With both, an
// existing -snapshot seeds an empty store.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"ivm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ivm:", err)
		os.Exit(1)
	}
}

func run() error {
	programPath := flag.String("program", "", "file with view rules (and optionally facts)")
	dataPath := flag.String("data", "", "file with base facts")
	strategyFlag := flag.String("strategy", "auto", "auto, counting, dred, recompute, or pf")
	semanticsFlag := flag.String("semantics", "set", "set or duplicate")
	snapshotPath := flag.String("snapshot", "", "snapshot file to load (if present) and save on exit")
	storeDir := flag.String("store", "", "managed store directory (checkpoints + write-ahead log) for crash-safe persistence")
	groupCommit := flag.Bool("group-commit", false, "batch WAL fsyncs across concurrent appenders (requires -store)")
	repl := flag.Bool("repl", false, "interactive session after loading")
	show := flag.String("show", "", "comma-separated predicates to print after loading and after each delta")
	metricsFlag := flag.Bool("metrics", false, "print a metrics exposition (name value lines) before exiting")
	flag.Parse()

	strategy, err := ivm.ParseStrategy(*strategyFlag)
	if err != nil {
		return err
	}
	semantics, err := ivm.ParseSemantics(*semanticsFlag)
	if err != nil {
		return err
	}
	opts := []ivm.Option{ivm.WithStrategy(strategy), ivm.WithSemantics(semantics)}

	if *groupCommit {
		opts = append(opts, ivm.WithGroupCommit())
	}

	var views *ivm.Views
	if *storeDir != "" {
		views, err = openStore(*storeDir, *programPath, *dataPath, *snapshotPath, opts)
	} else {
		views, err = loadViews(*programPath, *dataPath, *snapshotPath, opts)
	}
	if err != nil {
		return err
	}
	defer views.Close()

	out := io.Writer(os.Stdout)
	fmt.Fprintf(out, "ivm: strategy=%v semantics=%v, %d rules\n",
		views.Strategy(), views.Semantics(), len(views.Program().Rules))
	showPreds := splitList(*show)
	printPreds(out, views, showPreds)

	// Store-bound views log each delta durably inside ApplyScript; by
	// the time it returns, the change is both applied and fsynced.
	apply := func(script string) error {
		ch, err := views.ApplyScript(script)
		if err != nil {
			return err
		}
		fmt.Fprint(out, ch)
		printPreds(out, views, showPreds)
		return nil
	}

	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "-- applying %s\n", path)
		if err := apply(string(data)); err != nil {
			return err
		}
	}

	if *repl {
		if err := runREPL(views, apply, os.Stdin, out); err != nil {
			return err
		}
	}

	if *metricsFlag {
		fmt.Fprintln(out, "-- metrics --")
		if _, err := views.Metrics().WriteTo(out); err != nil {
			return err
		}
	}

	if storeBound, ok := views.Store(); ok {
		// Checkpoint on clean exit so the next start loads a snapshot
		// instead of replaying the whole WAL. A crash before (or during)
		// this is fine: every acknowledged delta is already in the WAL,
		// and the epoch protocol keeps a half-finished checkpoint from
		// double-applying anything.
		if err := views.Sync(); err != nil {
			return err
		}
		fmt.Printf("checkpointed store %s\n", storeBound)
	} else if *snapshotPath != "" {
		if err := views.Save(*snapshotPath); err != nil {
			return err
		}
		fmt.Printf("saved snapshot to %s\n", *snapshotPath)
	}
	return nil
}

// openStore opens (or initializes) a managed store. An empty store is
// seeded from -program/-data, or from an existing -snapshot file. Once
// the store holds a checkpoint those inputs are ignored: the store is
// the single source of truth.
func openStore(dir, programPath, dataPath, snapshotPath string, opts []ivm.Option) (*ivm.Views, error) {
	views, info, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		return loadViews(programPath, dataPath, snapshotPath, opts)
	}, opts...)
	if err != nil {
		return nil, err
	}
	fmt.Printf("store %s: %s\n", dir, info)
	return views, nil
}

func loadViews(programPath, dataPath, snapshotPath string, opts []ivm.Option) (*ivm.Views, error) {
	if snapshotPath != "" {
		if _, err := os.Stat(snapshotPath); err == nil {
			fmt.Printf("loading snapshot %s\n", snapshotPath)
			return ivm.LoadViews(snapshotPath, opts...)
		}
	}
	if programPath == "" {
		return nil, fmt.Errorf("-program is required (or -snapshot with an existing snapshot)")
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

func runREPL(views *ivm.Views, apply func(string) error, in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, `repl: enter delta clauses ("+link(a,b). -link(b,c)."), or commands:
  show <pred>      print a relation        query <goal>     e.g. query hop(a, X)
  explain <goal>   list a tuple's derivations                rules            list rules
  addrule <rule>   extend the definition   rmrule <index>   remove a rule
  stats            last maintenance stats  metrics          cumulative metrics
  version          published snapshot version
  help             this text               quit             exit`)
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "ivm> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Fprintln(out, "enter deltas like '+p(a,b). -q(c).' or a command (show/query/rules/addrule/rmrule/stats/metrics/version/quit)")
		case "show":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: show <pred>")
				continue
			}
			printPreds(out, views, fields[1:2])
		case "query":
			goal := strings.TrimSpace(strings.TrimPrefix(line, "query"))
			var res []ivm.QueryResult
			res, err = views.Query(goal)
			if err == nil {
				for _, r := range res {
					fmt.Fprintf(out, "  %s", r.Row.Tuple)
					if r.Row.Count != 1 {
						fmt.Fprintf(out, "  ×%d", r.Row.Count)
					}
					fmt.Fprintln(out)
				}
				fmt.Fprintf(out, "%d match(es)\n", len(res))
			}
		case "explain":
			goal := strings.TrimSpace(strings.TrimPrefix(line, "explain"))
			var ds []ivm.Derivation
			ds, err = views.Explain(goal)
			if err == nil {
				for i, d := range ds {
					fmt.Fprintf(out, "  derivation %d via %s\n", i+1, d.Rule)
					for _, sg := range d.Subgoals {
						mark := ""
						if sg.Negated {
							mark = "¬"
						}
						fmt.Fprintf(out, "    %s%s%s\n", mark, sg.Pred, sg.Tuple)
					}
				}
				fmt.Fprintf(out, "%d derivation(s)\n", len(ds))
			}
		case "rules":
			for i, r := range views.Program().Rules {
				fmt.Fprintf(out, "  [%d] %s\n", i, r.String())
			}
		case "addrule":
			var ch *ivm.ChangeSet
			ch, err = views.AddRule(strings.TrimSpace(strings.TrimPrefix(line, "addrule")))
			if err == nil {
				fmt.Fprint(out, ch)
			}
		case "rmrule":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: rmrule <index>")
				continue
			}
			var idx int
			idx, err = strconv.Atoi(fields[1])
			if err == nil {
				var ch *ivm.ChangeSet
				ch, err = views.RemoveRule(idx)
				if err == nil {
					fmt.Fprint(out, ch)
				}
			}
		case "stats":
			printStats(out, views)
		case "metrics":
			_, err = views.Metrics().WriteTo(out)
		case "version":
			s := views.Snapshot()
			fmt.Fprintf(out, "snapshot version %d (%d predicates)\n", s.Version(), len(s.Preds()))
		default:
			err = apply(line)
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
}

func printStats(out io.Writer, views *ivm.Views) {
	// A mixed program has a line for each algorithm.
	cst, counting := views.CountingStats()
	if counting {
		fmt.Fprintf(out, "counting: delta rules=%d, delta tuples=%d, cascades stopped=%d\n",
			cst.DeltaRulesEvaluated, cst.DeltaTuples, cst.CascadeStopped)
	}
	if st, ok := views.DRedStats(); ok {
		fmt.Fprintf(out, "dred: overestimated=%d, rederived=%d, inserted=%d, rule firings=%d\n",
			st.Overestimated, st.Rederived, st.Inserted, st.RuleFirings)
	} else if st, ok := views.PFStats(); ok {
		fmt.Fprintf(out, "pf: passes=%d, overestimated=%d, rederived=%d, inserted=%d, rule firings=%d\n",
			st.Passes, st.Overestimated, st.Rederived, st.Inserted, st.RuleFirings)
	} else if !counting {
		fmt.Fprintln(out, "no stats for this strategy")
	}
}

func printPreds(out io.Writer, views *ivm.Views, preds []string) {
	if len(preds) == 0 {
		return
	}
	sorted := append([]string(nil), preds...)
	sort.Strings(sorted)
	for _, pred := range sorted {
		rows := views.Rows(pred)
		fmt.Fprintf(out, "%s (%d tuples):\n", pred, len(rows))
		for _, r := range rows {
			if r.Count == 1 {
				fmt.Fprintf(out, "  %s\n", r.Tuple)
			} else {
				fmt.Fprintf(out, "  %s  ×%d\n", r.Tuple, r.Count)
			}
		}
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
