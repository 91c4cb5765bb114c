package sqlview

import (
	"strings"
	"testing"

	"ivm/internal/datalog"
	"ivm/internal/value"
)

func translate(t *testing.T, src string) *Result {
	t.Helper()
	script, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(script)
	if err != nil {
		t.Fatal(err)
	}
	if err := datalog.Validate(res.Program); err != nil {
		t.Fatalf("translated program invalid: %v\n%s", err, res.Program)
	}
	return res
}

func mustFail(t *testing.T, src, wantSub string) {
	t.Helper()
	script, err := Parse(src)
	if err == nil {
		_, err = Translate(script)
	}
	if err == nil {
		t.Fatalf("expected error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

// TestExample11SQL translates the paper's Example 1.1 CREATE VIEW.
func TestExample11SQL(t *testing.T) {
	res := translate(t, `
		CREATE TABLE link(s, d);
		CREATE VIEW hop(s, d) AS
		  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
	`)
	if len(res.Program.Rules) != 1 {
		t.Fatalf("rules: %s", res.Program)
	}
	r := res.Program.Rules[0]
	if r.Head.Pred != "hop" || len(r.Body) != 2 {
		t.Fatalf("rule: %s", r)
	}
	// The join variable must be shared between the two link atoms.
	a1 := r.Body[0].Atom.Args[1].(datalog.Var)
	a2 := r.Body[1].Atom.Args[0].(datalog.Var)
	if a1 != a2 {
		t.Fatalf("join variable not unified: %s", r)
	}
}

func TestInsertFacts(t *testing.T) {
	script, err := Parse(`
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a', 'b'), ('b', 'c');
		INSERT INTO link VALUES ('c', 'd');
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Facts) != 3 {
		t.Fatalf("facts: %d", len(script.Facts))
	}
	if script.Facts[0].Row[0] != value.NewString("a") {
		t.Fatalf("fact 0: %v", script.Facts[0])
	}
	if _, err := Translate(script); err != nil {
		t.Fatal(err)
	}
}

func TestInsertValidation(t *testing.T) {
	mustFail(t, `
		CREATE TABLE link(s, d);
		INSERT INTO link VALUES ('a');
	`, "columns")
	mustFail(t, `INSERT INTO nope VALUES (1);`, "undeclared")
}

func TestLiteralTypes(t *testing.T) {
	script, err := Parse(`
		CREATE TABLE m(a, b, c);
		INSERT INTO m VALUES (42, -3.5, 'it''s');
	`)
	if err != nil {
		t.Fatal(err)
	}
	row := script.Facts[0].Row
	if row[0].Int() != 42 || row[1].Float() != -3.5 || row[2].Str() != "it's" {
		t.Fatalf("row: %v", row)
	}
}

func TestConstantsInWhere(t *testing.T) {
	res := translate(t, `
		CREATE TABLE p(x, y);
		CREATE VIEW fromA(y) AS SELECT y FROM p WHERE x = 'a';
	`)
	r := res.Program.Rules[0]
	c, ok := r.Body[0].Atom.Args[0].(datalog.Const)
	if !ok || c.Value.Str() != "a" {
		t.Fatalf("constant not inlined: %s", r)
	}
}

func TestComparisonFilters(t *testing.T) {
	res := translate(t, `
		CREATE TABLE p(x, c);
		CREATE VIEW big(x) AS SELECT x FROM p WHERE c > 5 AND c != 42;
	`)
	r := res.Program.Rules[0]
	nconds := 0
	for _, l := range r.Body {
		if l.Kind == datalog.LitCondition {
			nconds++
		}
	}
	if nconds != 2 {
		t.Fatalf("conditions: %s", r)
	}
}

func TestArithmeticProjection(t *testing.T) {
	res := translate(t, `
		CREATE TABLE link(s, i, c);
		CREATE VIEW cost(s, d, total) AS
		  SELECT l1.s, l2.i, l1.c + l2.c AS total
		  FROM link l1, link l2 WHERE l1.i = l2.s;
	`)
	r := res.Program.Rules[0]
	if _, ok := r.Head.Args[2].(datalog.Arith); !ok {
		t.Fatalf("arith head: %s", r)
	}
}

func TestNotExistsBecomesNegation(t *testing.T) {
	res := translate(t, `
		CREATE TABLE tri_hop(s, d);
		CREATE TABLE hop(s, d);
		CREATE VIEW only_tri_hop(s, d) AS
		  SELECT t.s, t.d FROM tri_hop t
		  WHERE NOT EXISTS (SELECT * FROM hop h WHERE h.s = t.s AND h.d = t.d);
	`)
	r := res.Program.Rules[0]
	var neg *datalog.Literal
	for i := range r.Body {
		if r.Body[i].Kind == datalog.LitNegated {
			neg = &r.Body[i]
		}
	}
	if neg == nil || neg.Atom.Pred != "hop" {
		t.Fatalf("negation: %s", r)
	}
}

func TestNotExistsWithConstant(t *testing.T) {
	res := translate(t, `
		CREATE TABLE emp(name, dept);
		CREATE TABLE banned(name, why);
		CREATE VIEW ok_emp(name) AS
		  SELECT e.name FROM emp e
		  WHERE NOT EXISTS (SELECT * FROM banned b WHERE b.name = e.name AND b.why = 'fraud');
	`)
	r := res.Program.Rules[0]
	for _, l := range r.Body {
		if l.Kind == datalog.LitNegated {
			if c, ok := l.Atom.Args[1].(datalog.Const); !ok || c.Value.Str() != "fraud" {
				t.Fatalf("constant arg: %s", r)
			}
			return
		}
	}
	t.Fatalf("no negation: %s", r)
}

func TestNotExistsUnconstrainedRejected(t *testing.T) {
	mustFail(t, `
		CREATE TABLE p(x);
		CREATE TABLE q(x, y);
		CREATE VIEW v(x) AS SELECT x FROM p
		  WHERE NOT EXISTS (SELECT * FROM q WHERE q.x = p.x);
	`, "must be constrained")
}

func TestGroupByMinCostHop(t *testing.T) {
	// Example 6.2 in SQL.
	res := translate(t, `
		CREATE TABLE hop(s, d, c);
		CREATE VIEW min_cost_hop(s, d, m) AS
		  SELECT s, d, MIN(c) FROM hop GROUP BY s, d;
	`)
	if len(res.Program.Rules) != 2 {
		t.Fatalf("expected aux + main rule: %s", res.Program)
	}
	main := res.Program.Rules[1]
	if main.Body[0].Kind != datalog.LitAggregate {
		t.Fatalf("main rule: %s", main)
	}
	g := main.Body[0].Agg
	if g.Func != datalog.AggMin || len(g.GroupBy) != 2 {
		t.Fatalf("aggregate: %s", g)
	}
}

func TestGroupByJoinAndHaving(t *testing.T) {
	res := translate(t, `
		CREATE TABLE orders(id, cust, amt);
		CREATE TABLE region(cust, area);
		CREATE VIEW spend(area, total) AS
		  SELECT r.area, SUM(o.amt) AS total
		  FROM orders o, region r
		  WHERE o.cust = r.cust
		  GROUP BY r.area
		  HAVING SUM(o.amt) > 100;
	`)
	if len(res.Program.Rules) != 2 {
		t.Fatalf("rules: %s", res.Program)
	}
	main := res.Program.Rules[1]
	if len(main.Body) != 2 || main.Body[1].Kind != datalog.LitCondition {
		t.Fatalf("having: %s", main)
	}
}

func TestCountStar(t *testing.T) {
	res := translate(t, `
		CREATE TABLE follows(a, b);
		CREATE VIEW followers(b, n) AS
		  SELECT b, COUNT(*) AS n FROM follows GROUP BY b;
	`)
	aux := res.Program.Rules[0]
	if c, ok := aux.Head.Args[len(aux.Head.Args)-1].(datalog.Const); !ok || c.Value.Int() != 1 {
		t.Fatalf("COUNT(*) aux: %s", aux)
	}
}

func TestUnionBecomesRules(t *testing.T) {
	res := translate(t, `
		CREATE TABLE p(x, y);
		CREATE TABLE q(x, y);
		CREATE VIEW v(x, y) AS
		  SELECT x, y FROM p UNION SELECT x, y FROM q;
	`)
	if len(res.Program.Rules) != 2 {
		t.Fatalf("rules: %s", res.Program)
	}
	if res.Program.Rules[0].Head.Pred != "v" || res.Program.Rules[1].Head.Pred != "v" {
		t.Fatalf("heads: %s", res.Program)
	}
}

func TestViewOverView(t *testing.T) {
	res := translate(t, `
		CREATE TABLE link(s, d);
		CREATE VIEW hop(s, d) AS
		  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
		CREATE VIEW tri_hop(s, d) AS
		  SELECT h.s, l.d FROM hop h, link l WHERE h.d = l.s;
	`)
	if len(res.Program.Rules) != 2 {
		t.Fatalf("rules: %s", res.Program)
	}
	if res.Schemas["tri_hop"][1] != "d" {
		t.Fatalf("schema: %v", res.Schemas)
	}
}

func TestDistinctRequiresSet(t *testing.T) {
	res := translate(t, `
		CREATE TABLE p(x, y);
		CREATE VIEW v(x) AS SELECT DISTINCT x FROM p;
	`)
	if !res.RequiresSet {
		t.Fatal("DISTINCT must set RequiresSet")
	}
}

func TestColumnNamesFromAliases(t *testing.T) {
	res := translate(t, `
		CREATE TABLE p(x, y);
		CREATE VIEW v AS SELECT x AS a, y FROM p;
	`)
	if got := res.Schemas["v"]; len(got) != 2 || got[0] != "a" || got[1] != "y" {
		t.Fatalf("cols: %v", got)
	}
}

func TestErrorCases(t *testing.T) {
	mustFail(t, `CREATE VIEW v(x) AS SELECT x FROM nope;`, "unknown table")
	mustFail(t, `
		CREATE TABLE p(x);
		CREATE TABLE q(x);
		CREATE VIEW v(x) AS SELECT x FROM p, q;
	`, "ambiguous")
	mustFail(t, `
		CREATE TABLE p(x);
		CREATE VIEW v(a, b) AS SELECT x FROM p;
	`, "declares 2 columns")
	mustFail(t, `
		CREATE TABLE p(x, y);
		CREATE VIEW v(x) AS SELECT x FROM p HAVING x > 1;
	`, "HAVING requires GROUP BY")
	mustFail(t, `
		CREATE TABLE p(x, y);
		CREATE VIEW v(x, n) AS SELECT x, COUNT(*) FROM p;
	`, "GROUP BY")
	mustFail(t, `
		CREATE TABLE p(x, y);
		CREATE VIEW v(y, n) AS SELECT y, COUNT(*) AS n FROM p GROUP BY x;
	`, "not in GROUP BY")
	mustFail(t, `
		CREATE TABLE p(x);
		CREATE VIEW p(x) AS SELECT x FROM p;
	`, "already declared")
	mustFail(t, `
		CREATE TABLE p(x, c);
		CREATE VIEW v(x, a, b) AS SELECT x, MIN(c), MAX(c) FROM p GROUP BY x;
	`, "at most one aggregate")
	mustFail(t, `CREATE TABLE p(x); CREATE TABLE p(y);`, "declared twice")
	mustFail(t, `SELECT x FROM p;`, "expected CREATE or INSERT")
	mustFail(t, `CREATE TABLE p(x); CREATE VIEW v(x) AS SELECT * FROM p;`, "SELECT *")
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := Parse("CREATE VIEW v AS\n SELECT x FROM")
	if err == nil {
		t.Fatal("expected error")
	}
	if e, ok := err.(*Error); ok {
		if e.Line < 1 {
			t.Fatalf("position: %v", e)
		}
	} else {
		t.Fatalf("error type: %T", err)
	}
}

func TestTypedCreateTable(t *testing.T) {
	res := translate(t, `
		CREATE TABLE emp(name varchar, salary int, rate float);
		CREATE VIEW rich(name) AS SELECT name FROM emp WHERE salary > 100000;
	`)
	if got := res.Schemas["emp"]; len(got) != 3 || got[1] != "salary" {
		t.Fatalf("typed schema: %v", got)
	}
}
