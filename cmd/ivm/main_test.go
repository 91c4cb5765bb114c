package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ivm"
	"ivm/cmd/internal/cli"
)

// TestMain runs the command itself when the test binary is started as
// `<test binary> ivm <flags>`, so a test can see its exit status.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "ivm" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Facts whose arities clash make ivm exit 1 with a message that names
// them, not die with a stack trace.
func TestDataArityClashExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	program, data := filepath.Join(dir, "views.dl"), filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(program, []byte("hop(X,Y) :- link(X,Z), link(Z,Y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, []byte("link(a,b). link(a,b,c).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(os.Args[0], "ivm", "-program", program, "-data", data).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ivm exited with %v, want status 1; output:\n%s", err, out)
	}
	if want := "ivm: load: fact link(a, b, c) has arity 3, but link has arity 2\n"; string(out) != want {
		t.Fatalf("ivm printed\n%s\nwant\n%s", out, want)
	}
}

func testViews(t *testing.T) *ivm.Views {
	t.Helper()
	db := ivm.NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`
		reach(X,Y) :- link(X,Y).
		reach(X,Y) :- reach(X,Z), link(Z,Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func runScript(t *testing.T, v *ivm.Views, script string) string {
	t.Helper()
	var out strings.Builder
	apply := func(s string) error {
		ch, err := v.ApplyScript(s)
		if err != nil {
			return err
		}
		out.WriteString(ch.String())
		return nil
	}
	if err := runREPL(v, apply, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestREPLDeltaAndShow(t *testing.T) {
	v := testViews(t)
	out := runScript(t, v, "+link(c,d).\nshow reach\nquit\n")
	if !strings.Contains(out, "Δ(reach)") {
		t.Fatalf("missing delta output:\n%s", out)
	}
	if !strings.Contains(out, "reach (6 tuples):") {
		t.Fatalf("missing show output:\n%s", out)
	}
}

func TestREPLQuery(t *testing.T) {
	v := testViews(t)
	out := runScript(t, v, "query reach(a, X)\nquit\n")
	if !strings.Contains(out, "2 match(es)") {
		t.Fatalf("query output:\n%s", out)
	}
}

func TestREPLRulesAddRemove(t *testing.T) {
	v := testViews(t)
	out := runScript(t, v, "rules\naddrule reach(X,Y) :- tunnel(X,Y).\n+tunnel(x,y).\nrmrule 2\nrules\nquit\n")
	if !strings.Contains(out, "[0] reach(X, Y) :- link(X, Y).") {
		t.Fatalf("rules listing:\n%s", out)
	}
	if !strings.Contains(out, "Δ(reach) = {(x, y)}") {
		t.Fatalf("tunnel fact must derive reach(x,y):\n%s", out)
	}
	if !strings.Contains(out, "Δ(reach) = {(x, y) -1}") {
		t.Fatalf("rmrule must retract reach(x,y):\n%s", out)
	}
	if v.Has("reach", "x", "y") {
		t.Fatal("tunnel rule removed, derivation must be gone")
	}
}

func TestREPLStatsAndErrors(t *testing.T) {
	v := testViews(t)
	out := runScript(t, v, "-link(a,b).\nstats\n-link(zz,qq).\nbad syntax here\nquit\n")
	if !strings.Contains(out, `"strategy":"dred","stats":{`) || !strings.Contains(out, `"overestimated":`) {
		t.Fatalf("stats:\n%s", out)
	}
	if strings.Count(out, "error:") != 2 {
		t.Fatalf("expected two error lines:\n%s", out)
	}
}

func TestREPLVersion(t *testing.T) {
	v := testViews(t)
	out := runScript(t, v, "version\n+link(q,r).\nversion\nquit\n")
	if !strings.Contains(out, "snapshot version 1 (") {
		t.Fatalf("initial version:\n%s", out)
	}
	if !strings.Contains(out, "snapshot version 2 (") {
		t.Fatalf("version must advance after an applied delta:\n%s", out)
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("splitList: %v", got)
	}
	if splitList("") != nil {
		t.Fatal("empty")
	}
}

func TestREPLExplain(t *testing.T) {
	v := testViews(t)
	out := runScript(t, v, "explain reach(a, c)\nquit\n")
	if !strings.Contains(out, "1 derivation(s)") || !strings.Contains(out, "link(b, c)") {
		t.Fatalf("explain output:\n%s", out)
	}
}

func TestOpenStoreSeedsFromProgramThenIgnoresIt(t *testing.T) {
	dir := t.TempDir()
	programPath := filepath.Join(dir, "views.dl")
	dataPath := filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(programPath, []byte("hop(X,Y) :- link(X,Z), link(Z,Y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dataPath, []byte("link(a,b). link(b,c).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "state.store")
	v, _, err := cli.OpenViews(store, programPath, dataPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ApplyScript("+link(c,d)."); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// The store is now the source of truth: the second open replays its
	// WAL and never reads -program/-data again.
	v, _, err = cli.OpenViews(store, filepath.Join(dir, "gone.dl"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for _, want := range [][2]string{{"a", "c"}, {"b", "d"}} {
		if !v.Has("hop", want[0], want[1]) {
			t.Fatalf("hop(%s,%s) missing after reopen", want[0], want[1])
		}
	}
}
