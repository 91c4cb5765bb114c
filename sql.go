package ivm

import (
	"fmt"

	"ivm/internal/sqlview"
	"ivm/internal/value"
)

// MaterializeSQL is Materialize for SQL view definitions — the form the
// paper's introduction uses (Example 1.1's CREATE VIEW). The script may
// contain CREATE TABLE declarations (schemas), CREATE VIEW statements
// (translated to Datalog rules: joins, NOT EXISTS → negation, GROUP BY +
// aggregate → GROUPBY subgoals, UNION → multiple rules) and INSERT
// statements (loaded as base facts):
//
//	CREATE TABLE link(s, d);
//	INSERT INTO link VALUES ('a','b'), ('b','c');
//	CREATE VIEW hop(s, d) AS
//	  SELECT r1.s, r2.d FROM link r1, link r2 WHERE r1.d = r2.s;
//
// SELECT DISTINCT views require set semantics. The views are maintained
// exactly like Datalog-defined ones.
func (d *Database) MaterializeSQL(sqlSrc string, opts ...Option) (*Views, error) {
	script, err := sqlview.Parse(sqlSrc)
	if err != nil {
		return nil, err
	}
	res, err := sqlview.Translate(script)
	if err != nil {
		return nil, err
	}
	cfg := newConfig(opts)
	if res.RequiresSet && cfg.semantics == DuplicateSemantics {
		return nil, fmt.Errorf("ivm: SELECT DISTINCT views require set semantics")
	}
	for _, f := range script.Facts {
		d.base.Ensure(f.Table, len(f.Row)).Add(value.Tuple(f.Row), 1)
	}
	v, err := d.MaterializeProgram(res.Program, res.Program.String(), opts...)
	if err != nil {
		return nil, err
	}
	v.setHidden(res.AuxPreds)
	return v, nil
}
