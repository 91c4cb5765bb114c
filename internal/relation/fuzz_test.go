package relation

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"ivm/internal/value"
)

// churn is the stream that passes 256 tuples through a relation of six
// rows: it deletes the oldest before it adds the next, so the table stays
// the eight cells of its first growth, three quarters full. Homes follow
// the per-process hash seed, so no fixed stream can name the cells it
// touches; in a table that small and that full most deletes shift a run
// back, and under any seed about a hundred of those runs wrap the end of
// the array.
func churn() []byte {
	var ops []byte
	for k := 0; k < 256; k++ {
		if k >= 6 {
			ops = append(ops, 0x02, byte(k-6)) // Delete
		}
		ops = append(ops, 0x80, byte(k)) // Add +1
	}
	return ops
}

// FuzzTableOps drives a relation with a stream of two-byte operations —
// the low nibble of the first byte picks Add, AddRow, Delete, Set, a copy,
// Reset, an add to a delta beside the relation or a rebase, its high
// nibble the count, the second byte the tuple, whose string is 0 to 300
// bytes; a stream of odd length ends in a byte that makes the tuples of
// arity 0, 5 or 6 where they are otherwise 2 — beside a plain
// map[string]int64, and a published Stored fed every change the relation
// takes, as a one-row delta, which a rebase op folds into a new base. A
// copy is a Clone for an even count, else the successor of the frozen
// relation (cloneIndexed), whose first writes go to runs it shares. An add
// to the delta with count 0 cancels the tuple's count in base ⊎ delta. A
// tuple's first value is an int, or +0.0, -0.0 or NaN, which key identity
// tells apart and matches as themselves. After every operation it checks
// the tuple touched: its count in the relation, the Stored and the
// overlay, and Lookup on {0}, {1} and {0,1} for its projections (so every
// later operation maintains those indexes); and that the cell after the
// last row, which a delete empties, is empty. Every wholeEvery operations
// and at the end it checks what costs a pass over every row: every built
// index's runs against a scan (checkRuns), so a swap-remove that loses the
// row it moves fails within wholeEvery operations; Lookup of the tuples
// touched since the last such check on Overlay(relation, delta) through
// one reused buffer; and that the Stored reads as the relation does, in
// the order the place model gives (samePlaces). At the end and at every
// copy, the whole content and every projection (the relation a copy
// leaves behind must keep what it had).
func FuzzTableOps(f *testing.F) {
	const wholeEvery = 7 // odd: a stream that alternates two operations is checked after each
	f.Add(churn())
	f.Add([]byte{0x80, 1, 0x81, 1, 0x93, 2, 0x04, 0, 0x62, 1, 0x05, 0, 0x80, 3})
	f.Add([]byte{0x80, 13, 0x80, 14, 0x80, 15, 0x81, 0x1d, 0x86, 13, 0x76, 14, 0x96, 0x2f, 0x76, 15, 0x66, 0x1e, 0x02, 13})
	for arity := range byte(3) {
		f.Add(append(churn()[:200], 0x80, 0xfe, 0x04, 0x3f, 0x07, 0, 0x72, 0xfe, 0x86, 0x3f, arity))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		arity, cols := 2, [][]int{{0}, {1}, {0, 1}}
		if len(ops)%2 == 1 {
			arity = []int{0, 5, 6}[ops[len(ops)-1]%3]
		}
		if arity == 0 {
			cols = nil
		}
		r, m := New(-1), map[string]int64{}
		tuples := map[string]value.Tuple{}
		delta := New(-1)
		st, pl := Store(New(-1)), &places{}
		st.Publish(nil, nil)
		pl.seat(st)
		var buf []Row
		// overlays checks LookupInto on base ⊎ delta, and on base ⊎ delta ⊎
		// -delta, against what the materialized overlays hold.
		overlays := func(where string, probes ...value.Tuple) {
			ov := Overlay(r, delta)
			for _, c := range []struct {
				rd   Reader
				flat *Relation
			}{{ov, Materialize(ov)}, {Overlay(ov, delta.Negate()), r}} {
				for _, cols := range cols {
					for _, tu := range probes {
						kv, got, want := tu.Project(cols), map[string]int64{}, map[string]int64{}
						run := LookupInto(c.rd, cols, kv, &buf)
						for _, row := range run {
							got[row.Key()] = row.Count
						}
						for _, row := range c.flat.Lookup(cols, kv) {
							want[row.Key()] = row.Count
						}
						if len(run) != len(got) || !maps.Equal(got, want) {
							t.Fatalf("%s: overlay Lookup(%v, %v) = %v, materialized %v", where, cols, kv, run, want)
						}
					}
				}
			}
		}
		// lookups checks Lookup on each projection of each probe.
		lookups := func(where string, r *Relation, m map[string]int64, probes ...value.Tuple) {
			model := make([]Row, 0, len(m))
			for k, c := range m {
				model = append(model, Row{Tuple: tuples[k], Count: c, key: k})
			}
			for _, cols := range cols {
				wants := make(map[string]map[string]int64, len(probes)) // by projection: one pass over the model
				for _, tu := range probes {
					wants[tu.Project(cols).Key()] = map[string]int64{}
				}
				for _, row := range model {
					if want, ok := wants[row.Tuple.Project(cols).Key()]; ok {
						want[row.key] = row.Count
					}
				}
				for _, tu := range probes {
					kv, got := tu.Project(cols), map[string]int64{}
					run, want := r.Lookup(cols, kv), wants[kv.Key()]
					for _, row := range run {
						got[row.Key()] = row.Count
					}
					if len(run) != len(got) || !maps.Equal(got, want) {
						t.Fatalf("%s: Lookup(%v, %v) = %v, model %v", where, cols, kv, run, want)
					}
				}
			}
		}
		same := func(where string, r *Relation, m map[string]int64) {
			seen := 0
			r.Each(func(row Row) {
				if seen++; m[row.Key()] != row.Count || row.Count == 0 {
					t.Fatalf("%s: relation holds %v×%d, model %d", where, row.Tuple, row.Count, m[row.Key()])
				}
			})
			if seen != len(m) || r.Len() != len(m) {
				t.Fatalf("%s: Each visited %d rows, Len %d, model has %d", where, seen, r.Len(), len(m))
			}
			for k, c := range m {
				if got := r.Count(tuples[k]); got != c {
					t.Fatalf("%s: Count(%v) = %d, model %d", where, tuples[k], got, c)
				}
			}
			var probes []value.Tuple
			for _, tu := range tuples {
				probes = append(probes, tu)
			}
			lookups(where, r, m, probes...)
		}
		var touched []value.Tuple // since the last whole check
		first := []value.Value{13: value.NewFloat(0), 14: value.NewFloat(math.Copysign(0, -1)), 15: value.NewFloat(math.NaN())}
		for i := 0; i+1 < len(ops); i += 2 {
			tu := value.T(int64(ops[i+1]%16), strings.Repeat("k", 20*int(ops[i+1]/16)), 2, 0.5, "p", -4)[:arity]
			if v := ops[i+1] % 16; v >= 13 && arity > 0 {
				tu[0] = first[v]
			}
			k, c := tu.Key(), int64(ops[i]>>4)-7
			tuples[k] = tu
			was := r.Count(tu)
			switch ops[i] & 0xf % 8 {
			case 0:
				r.Add(tu, c)
				m[k] += c
			case 1:
				r.AddRow(keyed(tu, c))
				m[k] += c
			case 2:
				r.Delete(tu)
				m[k] = 0
			case 3:
				r.Set(tu, c)
				m[k] = c
			case 4:
				old, oldM := r, maps.Clone(m)
				if c%2 == 0 {
					r = r.Clone()
				} else {
					old.Freeze()
					r = old.cloneIndexed(old.Len())
				}
				r.Add(tu, 1)
				m[k]++
				same("the relation a copy left behind", old, oldM)
			case 5:
				r.Reset()
				m = map[string]int64{}
				st, was, pl = Store(New(-1)), 0, &places{}
				st.Publish(nil, nil)
				pl.seat(st)
			case 6:
				if c == 0 {
					c = -r.Count(tu) - delta.Count(tu)
				}
				delta.Add(tu, c)
			default:
				st.rebase()
				pl.seat(st)
			}
			if moved := r.Count(tu) - was; moved != 0 {
				d := New(arity)
				d.Add(tu, moved)
				pl.merge(st, d)
			}
			if m[k] == 0 {
				delete(m, k)
			}
			if got := r.Count(tu); got != m[k] {
				t.Fatalf("op %d (%#x %d): Count(%v) = %d, model %d", i/2, ops[i], ops[i+1], tu, got, m[k])
			}
			if got := st.Count(tu); got != m[k] {
				t.Fatalf("op %d (%#x %d): the Stored's Count(%v) = %d, model %d", i/2, ops[i], ops[i+1], tu, got, m[k])
			}
			if got, want := Overlay(r, delta).Count(tu), m[k]+delta.Count(tu); got != want {
				t.Fatalf("op %d (%#x %d): the overlay's Count(%v) = %d, want %d", i/2, ops[i], ops[i+1], tu, got, want)
			}
			where := fmt.Sprintf("op %d (%#x %d)", i/2, ops[i], ops[i+1])
			lookups(where, r, m, tu)
			if n := r.Len(); n < cap(r.rows.cells) && r.rows.cells[:n+1][n].cell != (cell{}) {
				t.Fatalf("%s: the cell after the last row, which a delete empties, holds %+v", where, r.rows.cells[:n+1][n].cell)
			}
			if touched = append(touched, tu); i/2%wholeEvery == wholeEvery-1 {
				checkRuns(t, where, r)
				overlays(where, touched...)
				samePlaces(t, where, st, pl, r, cols, touched...)
				touched = touched[:0]
			}
		}
		checkRuns(t, "at the end", r)
		same("at the end", r, m)
		var probes []value.Tuple
		for _, tu := range tuples {
			probes = append(probes, tu)
		}
		overlays("at the end", probes...)
		samePlaces(t, "at the end", st, pl, r, cols, probes...)
	})
}
