package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started as
// `<test binary> ivmbench <flags>`, so a test can see its exit status.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "ivmbench" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A misspelt -scale exits 2 before any benchmark runs, and so does a run
// that names no benchmark.
func TestUsageErrorsExitTwoBeforeAnyWork(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-readers", out, "-scale", "smoek"}, `unknown scale "smoek"`},
		{nil, "Usage of"},
	} {
		msg, err := exec.Command(os.Args[0], append([]string{"ivmbench"}, tc.args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("ivmbench %v exited with %v, want status 2; output:\n%s", tc.args, err, msg)
		}
		if !strings.Contains(string(msg), tc.want) {
			t.Fatalf("ivmbench %v printed\n%s\nwant it to contain %q", tc.args, msg, tc.want)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a run refused for its scale wrote %s: %v", out, err)
	}
}
