package eval

import (
	"math"
	"testing"

	"ivm/internal/datalog"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// FuzzGroupTable drives a group table through ApplyDelta, Commit and
// Rollback beside a model of its grouped relation u(X,V) and requires,
// after every step, that T — and T ⊎ ΔT while ΔT is pending — holds what
// BuildGroupTable over the model holds. A failed ApplyDelta (SUM, AVG or
// VARIANCE meeting a string) must have rolled the table back itself.
//
// ops[0] picks the function (all six) and the value palette, integers or
// floats with ±0 and NaN. Then each pair (a, b) is one step: a%8 < 6
// inserts u(a/8%3, palette[b]), a%8 == 6 deletes that row if the model
// still holds it, and a%8 == 7 hands the delta built so far to ApplyDelta
// and then commits it (b even) or rolls it back (b odd).
func FuzzGroupTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 2, 16, 3, 7, 0, 6, 1, 0, 5, 7, 1, 6, 2, 7, 0})
	f.Add([]byte{6, 0, 1, 0, 5, 8, 6, 7, 0, 6, 1, 0, 5, 7, 0, 6, 5, 8, 3, 7, 1})
	f.Add([]byte{8, 0, 1, 8, 2, 7, 0, 0, 6, 7, 0, 6, 1, 14, 2, 7, 1})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 5, 7, 0, 6, 5, 0, 2, 7, 0, 6, 0, 7, 1, 0, 3, 7, 0})
	f.Add([]byte{11, 0, 0, 0, 1, 0, 6, 7, 0, 6, 1, 7, 0, 0, 4, 6, 0, 7, 0})
	fns := []datalog.AggFunc{datalog.AggMin, datalog.AggMax, datalog.AggSum, datalog.AggCount, datalog.AggAvg, datalog.AggVariance}
	palettes := [][]value.Value{
		{value.NewInt(-2), value.NewInt(-1), value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewString("s")},
		{value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0.5), value.NewFloat(1.5), value.NewFloat(-2), value.NewFloat(math.NaN()), value.NewString("s")},
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		g := &datalog.Aggregate{
			Inner:   datalog.Atom{Pred: "u", Args: []datalog.Term{datalog.Var("X"), datalog.Var("V")}},
			GroupBy: []datalog.Var{"X"},
			Result:  "R",
			Func:    fns[int(ops[0])%len(fns)],
			Arg:     datalog.Var("V"),
		}
		palette := palettes[int(ops[0])/len(fns)%len(palettes)]
		model := relation.New(2)
		gt, err := BuildGroupTable(g, model)
		if err != nil {
			t.Fatal(err)
		}
		du := relation.New(2)
		for i := 1; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			tu := value.Tuple{value.NewInt(int64(a / 8 % 3)), palette[int(b)%len(palette)]}
			switch {
			case a%8 < 6:
				du.Add(tu, 1)
			case a%8 == 6:
				if model.Count(tu)+du.Count(tu) > 0 {
					du.Add(tu, -1)
				}
			default:
				uNew := relation.UnionPlus(model, du)
				dt, err := gt.ApplyDelta(du, uNew, nil)
				if err == nil {
					sameGroups(t, "T ⊎ ΔT", g, relation.UnionPlus(gt.Rel(), dt), uNew)
					if b%2 == 0 {
						gt.Commit(dt)
						model = uNew
					} else {
						gt.Rollback()
					}
				}
				sameGroups(t, "T", g, gt.Rel(), model)
				du = relation.New(2)
			}
		}
	})
}

// sameGroups fails t unless got has count 1 on one row per group of u's
// rebuilt table, with its aggregate: identical, or equal under Compare for
// floats — -0 and +0 tie in MIN/MAX, where the first one seen is kept, and
// a NaN once summed stays in the accumulator (NaN − NaN is NaN). A MIN or
// MAX must also be a value its group holds.
func sameGroups(t *testing.T, what string, g *datalog.Aggregate, got *relation.Relation, u *relation.Relation) {
	t.Helper()
	want, err := BuildGroupTable(g, u)
	if err != nil {
		t.Fatalf("%s: rebuild over %v: %v", what, u, err)
	}
	agg := make(map[string]value.Value)
	for _, row := range got.Rows() {
		if row.Count != 1 {
			t.Fatalf("%s: %v has count %d; T %v, want %v", what, row.Tuple, row.Count, got, want.Rel())
		}
		agg[row.Tuple[:1].Key()] = row.Tuple[1]
	}
	if got.Len() != want.Rel().Len() {
		t.Fatalf("%s %v has %d groups, want %v over %v", what, got, got.Len(), want.Rel(), u)
	}
	want.Rel().Each(func(row relation.Row) {
		v, ok := agg[row.Tuple[:1].Key()]
		held := g.Func != datalog.AggMin && g.Func != datalog.AggMax || u.Count(value.Tuple{row.Tuple[0], v}) > 0
		if !ok || !held || v != row.Tuple[1] && v.Compare(row.Tuple[1]) != 0 {
			t.Fatalf("%s %v, want %v over %v", what, got, want.Rel(), u)
		}
	})
}
