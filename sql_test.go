package ivm_test

import (
	"strings"
	"testing"

	"ivm"
)

// TestSQLExample11 drives the paper's Example 1.1 through the SQL front
// end: the exact CREATE VIEW from the paper, then the link(a,b) deletion.
func TestSQLExample11(t *testing.T) {
	db := ivm.NewDatabase()
	v, err := db.MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a','b'), ('b','c'), ('b','e'), ('a','d'), ('d','c');
		CREATE VIEW hop(s, d) AS
		  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err != nil {
		t.Fatal(err)
	}
	if v.Strategy() != ivm.Counting {
		t.Fatalf("strategy: %v", v.Strategy())
	}
	if v.Count("hop", "a", "c") != 2 || v.Count("hop", "a", "e") != 1 {
		t.Fatalf("hop: %v", v.Rows("hop"))
	}
	ch, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Deleted("hop")) != 2 {
		t.Fatalf("Δhop: %v", ch.Delta("hop"))
	}
	if !v.Has("hop", "a", "c") || v.Has("hop", "a", "e") {
		t.Fatalf("hop after: %v", v.Rows("hop"))
	}
}

// TestSQLNegationAndAggregation covers NOT EXISTS and GROUP BY through
// maintenance.
func TestSQLNegationAndAggregation(t *testing.T) {
	db := ivm.NewDatabase()
	v, err := db.MaterializeSQL(`
		CREATE TABLE orders(id, cust, amt);
		INSERT INTO orders VALUES (1, 'acme', 120), (2, 'acme', 80), (3, 'zen', 50);
		CREATE TABLE banned(cust);
		INSERT INTO banned VALUES ('zen');

		CREATE VIEW spend(cust, total) AS
		  SELECT cust, SUM(amt) AS total FROM orders GROUP BY cust;

		CREATE VIEW good_spend(cust, total) AS
		  SELECT s.cust, s.total FROM spend s
		  WHERE NOT EXISTS (SELECT * FROM banned b WHERE b.cust = s.cust);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has("good_spend", "acme", 200) || v.Has("good_spend", "zen", 50) {
		t.Fatalf("good_spend: %v", v.Rows("good_spend"))
	}
	// zen is unbanned: their spend appears.
	if _, err := v.Apply(ivm.NewUpdate().Delete("banned", "zen")); err != nil {
		t.Fatal(err)
	}
	if !v.Has("good_spend", "zen", 50) {
		t.Fatalf("good_spend after unban: %v", v.Rows("good_spend"))
	}
	// A new order moves acme's group.
	if _, err := v.Apply(ivm.NewUpdate().Insert("orders", 4, "acme", 1)); err != nil {
		t.Fatal(err)
	}
	if !v.Has("spend", "acme", 201) || v.Has("spend", "acme", 200) {
		t.Fatalf("spend after insert: %v", v.Rows("spend"))
	}
}

func TestSQLUnionView(t *testing.T) {
	db := ivm.NewDatabase()
	v, err := db.MaterializeSQL(`
		CREATE TABLE road(a, b);
		CREATE TABLE rail(a, b);
		INSERT INTO road VALUES ('x', 'y');
		INSERT INTO rail VALUES ('y', 'z');
		CREATE VIEW connected(a, b) AS
		  SELECT a, b FROM road UNION SELECT a, b FROM rail;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows("connected")) != 2 {
		t.Fatalf("connected: %v", v.Rows("connected"))
	}
	if _, err := v.Apply(ivm.NewUpdate().Delete("rail", "y", "z")); err != nil {
		t.Fatal(err)
	}
	if v.Has("connected", "y", "z") {
		t.Fatal("rail branch must retract")
	}
}

func TestSQLDistinctRequiresSetSemantics(t *testing.T) {
	db := ivm.NewDatabase()
	_, err := db.MaterializeSQL(`
		CREATE TABLE p(x, y);
		CREATE VIEW v(x) AS SELECT DISTINCT x FROM p;
	`, ivm.WithSemantics(ivm.DuplicateSemantics))
	if err == nil || !strings.Contains(err.Error(), "set semantics") {
		t.Fatalf("err: %v", err)
	}
	// Fine under set semantics.
	if _, err := db.MaterializeSQL(`
		CREATE TABLE q(x, y);
		CREATE VIEW w(x) AS SELECT DISTINCT x FROM q;
	`); err != nil {
		t.Fatal(err)
	}
}

func TestSQLSaveLoadRoundTrip(t *testing.T) {
	// The translated Datalog must survive a checkpoint round trip (the
	// checkpoint stores the rendered program).
	v2 := reopenedStore(t, func() (*ivm.Views, error) {
		return ivm.NewDatabase().MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a','b'), ('b','c');
		CREATE VIEW hop(s, d) AS
		  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
		CREATE VIEW hops(s, n) AS
		  SELECT s, COUNT(*) AS n FROM hop GROUP BY s;
	`)
	})
	if !v2.Has("hops", "a", 1) {
		t.Fatalf("hops after load: %v", v2.Rows("hops"))
	}
	if _, err := v2.Apply(ivm.NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if !v2.Has("hop", "b", "d") {
		t.Fatal("maintenance after load")
	}
}

// reopenedStore checkpoints the views init builds as a new store, closes
// it and returns the views reopened from the checkpoint.
func reopenedStore(t *testing.T, init func() (*ivm.Views, error)) *ivm.Views {
	t.Helper()
	dir := t.TempDir()
	v, _, err := ivm.OpenStore(dir, init)
	if err == nil {
		err = v.Close()
	}
	if err == nil {
		v, _, err = ivm.OpenStore(dir, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

func TestSQLErrorsSurface(t *testing.T) {
	db := ivm.NewDatabase()
	if _, err := db.MaterializeSQL(`CREATE VIEW v(x) AS SELECT x FROM nope;`); err == nil {
		t.Fatal("unknown table must fail")
	}
	if _, err := db.MaterializeSQL(`CREATE TABLE`); err == nil {
		t.Fatal("syntax error must fail")
	}
}

func TestSQLCountStarUnderSetSemantics(t *testing.T) {
	// Regression: the COUNT(*) aux rule used to project the source row
	// down to (group, 1), so under set semantics every row of a group
	// collapsed to one aux tuple and the count froze at 1. The aux head
	// now keeps the remaining body columns as row identity.
	db := ivm.NewDatabase()
	v, err := db.MaterializeSQL(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a','b');
		CREATE VIEW deg(s, n) AS SELECT s, COUNT(*) AS n FROM link GROUP BY s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has("deg", "a", 1) {
		t.Fatalf("deg: %v", v.Rows("deg"))
	}
	ch, err := v.Apply(ivm.NewUpdate().Insert("link", "a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if ch.Empty() || !v.Has("deg", "a", 2) {
		t.Fatalf("deg after insert: %v (changes %v)", v.Rows("deg"), ch.Preds())
	}
	if _, err := v.Apply(ivm.NewUpdate().Delete("link", "a", "b")); err != nil {
		t.Fatal(err)
	}
	if !v.Has("deg", "a", 1) {
		t.Fatalf("deg after delete: %v", v.Rows("deg"))
	}
}

func TestSQLSumWithRepeatedValues(t *testing.T) {
	// Same collapse applied to SUM whenever two rows of a group agreed on
	// the summed column.
	db := ivm.NewDatabase()
	v, err := db.MaterializeSQL(`
		CREATE TABLE orders(id, cust, amt);
		INSERT INTO orders VALUES (1, 'acme', 100), (2, 'acme', 100);
		CREATE VIEW spend(cust, total) AS
		  SELECT cust, SUM(amt) AS total FROM orders GROUP BY cust;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has("spend", "acme", 200) {
		t.Fatalf("spend: %v", v.Rows("spend"))
	}
	if _, err := v.Apply(ivm.NewUpdate().Insert("orders", 3, "acme", 100)); err != nil {
		t.Fatal(err)
	}
	if !v.Has("spend", "acme", 300) {
		t.Fatalf("spend after insert: %v", v.Rows("spend"))
	}
}
