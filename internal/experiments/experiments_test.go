package experiments

import (
	"strings"
	"testing"
)

// TestRunAllSmoke executes every experiment at a tiny scale: the tables
// must render with their headers and at least one data row (this keeps
// the harness itself under test).
func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tiny := Scale{Nodes: 30, Edges: 90, Trials: 1}
	tables := RunAll(tiny)
	if len(tables) != 11 {
		t.Fatalf("tables: %d", len(tables))
	}
	seen := map[string]bool{}
	for _, tab := range tables {
		if seen[tab.ID] {
			t.Fatalf("duplicate id %s", tab.ID)
		}
		seen[tab.ID] = true
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: no rows", tab.ID)
		}
		out := tab.Render()
		if !strings.Contains(out, tab.ID) || !strings.Contains(out, tab.Header[0]) {
			t.Fatalf("%s: render missing pieces:\n%s", tab.ID, out)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: row width %d vs header %d", tab.ID, len(row), len(tab.Header))
			}
		}
	}
}

// RunAll executes every experiment at the given scale.
func RunAll(s Scale) []*Table {
	return []*Table{
		RunE1(s), RunE2(s), RunE3(s), RunE4(s), RunE5(s), RunE6(s),
		RunE7(s), RunE8(s), RunE9(s), RunE10(s), RunE12(s),
	}
}
