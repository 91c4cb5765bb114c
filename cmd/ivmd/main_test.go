package main

import (
	"os"
	"path/filepath"
	"testing"

	"ivm"
	"ivm/cmd/internal/cli"
)

func TestBuildViews(t *testing.T) {
	dir := t.TempDir()
	program := filepath.Join(dir, "views.dl")
	data := filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(program, []byte("hop(X,Y) :- link(X,Z), link(Z,Y).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, []byte("link(a,b).\nlink(b,c).\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	v, _, err := cli.OpenViews("", program, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has("hop", "a", "c") {
		t.Fatal("views built without the seeded facts")
	}

	// Program only, no data file.
	v2, _, err := cli.OpenViews("", program, "", []ivm.Option{ivm.WithStrategy(ivm.Counting)})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v2.Rows("hop")); n != 0 {
		t.Fatalf("no facts loaded but hop has %d rows", n)
	}

	// Error paths: missing program flag, missing files, bad rules.
	if _, _, err := cli.OpenViews("", "", "", nil); err == nil {
		t.Fatal("empty -program must fail")
	}
	if _, _, err := cli.OpenViews("", filepath.Join(dir, "nope.dl"), "", nil); err == nil {
		t.Fatal("missing program file must fail")
	}
	if _, _, err := cli.OpenViews("", program, filepath.Join(dir, "nope.dl"), nil); err == nil {
		t.Fatal("missing data file must fail")
	}
	badProgram := filepath.Join(dir, "bad.dl")
	os.WriteFile(badProgram, []byte("hop(X,Y) :-"), 0o644)
	if _, _, err := cli.OpenViews("", badProgram, "", nil); err == nil {
		t.Fatal("malformed rules must fail")
	}
	badData := filepath.Join(dir, "badfacts.dl")
	os.WriteFile(badData, []byte("link(a,"), 0o644)
	if _, _, err := cli.OpenViews("", program, badData, nil); err == nil {
		t.Fatal("malformed facts must fail")
	}
}
