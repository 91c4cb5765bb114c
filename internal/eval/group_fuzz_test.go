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
// BuildGroupTable over the model holds. Only SUM, AVG and VARIANCE may
// fail an ApplyDelta (a string, NaN or ±Inf operand), and a failed one
// must have rolled the table back itself.
//
// ops[0] picks the function (all six) and the value palette: integers,
// floats with ±0 and NaN, or both kinds mixed with ±Inf and ints beyond
// 2^53. Then each pair (a, b) is one step: a%8 < 6 inserts
// u(a/8%3, palette[b]), a%8 == 6 deletes that row if the model still
// holds it, and a%8 == 7 hands the delta built so far to ApplyDelta and
// then commits it (b even) or rolls it back (b odd).
func FuzzGroupTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 2, 16, 3, 7, 0, 6, 1, 0, 5, 7, 1, 6, 2, 7, 0})
	f.Add([]byte{6, 0, 1, 0, 5, 8, 6, 7, 0, 6, 1, 0, 5, 7, 0, 6, 5, 8, 3, 7, 1})
	f.Add([]byte{8, 0, 1, 8, 2, 7, 0, 0, 6, 7, 0, 6, 1, 14, 2, 7, 1})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 5, 7, 0, 6, 5, 0, 2, 7, 0, 6, 0, 7, 1, 0, 3, 7, 0})
	f.Add([]byte{11, 0, 0, 0, 1, 0, 6, 7, 0, 6, 1, 7, 0, 0, 4, 6, 0, 7, 0})
	// MIN over u(0,NaN), u(0,1.0), u(0,2), one apply each, then -u(0,1.0).
	f.Add([]byte{12, 0, 4, 7, 0, 0, 1, 7, 0, 0, 7, 7, 0, 6, 1, 7, 0})
	// SUM over u(0,1), u(0,1.0), then -u(0,1.0): an Int 1 again.
	f.Add([]byte{14, 0, 0, 0, 1, 7, 0, 6, 1, 7, 0})
	// MIN over u(0,1), u(0,2); -u(0,1) rolled back, then committed, then
	// -u(0,2): the minimum leaves, comes back, leaves and empties the group.
	f.Add([]byte{0, 0, 3, 0, 4, 7, 0, 6, 3, 7, 1, 6, 3, 7, 0, 6, 4, 7, 0})
	fns := []datalog.AggFunc{datalog.AggMin, datalog.AggMax, datalog.AggSum, datalog.AggCount, datalog.AggAvg, datalog.AggVariance}
	mixed := []value.Value{
		value.NewInt(1), value.NewFloat(1), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewInt(2), value.NewString("s"),
	}
	// A float sum of values near 2^53 depends on the order it adds them in,
	// so a maintained and a rebuilt SUM, AVG or VARIANCE of them may differ
	// in the last place: only MIN, MAX and COUNT draw past exactSums.
	exactSums := len(mixed)
	for _, n := range []int64{1<<53 + 1, 1<<53 - 1, -1<<53 - 1, -1<<53 + 1} {
		mixed = append(mixed, value.NewInt(n), value.NewFloat(float64(n)))
	}
	palettes := [][]value.Value{
		{value.NewInt(-2), value.NewInt(-1), value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewString("s")},
		{value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0.5), value.NewFloat(1.5), value.NewFloat(-2), value.NewFloat(math.NaN()), value.NewString("s")},
		mixed,
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
		orderOnly := g.Func == datalog.AggMin || g.Func == datalog.AggMax || g.Func == datalog.AggCount
		if !orderOnly && len(palette) > exactSums {
			palette = palette[:exactSums]
		}
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
				uNew := model.Clone()
				uNew.MergeDelta(du)
				dt, err := gt.ApplyDelta(du, nil)
				if err != nil && orderOnly {
					t.Fatalf("%s: ApplyDelta(%v) over %v: %v", g.Func, du, model, err)
				}
				if err == nil {
					tNew := gt.Rel().Clone()
					tNew.MergeDelta(dt)
					sameGroups(t, "T ⊎ ΔT", g, tNew, uNew)
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
// rebuilt table, with an identical (==) aggregate.
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
		if v, ok := agg[row.Tuple[:1].Key()]; !ok || v != row.Tuple[1] {
			t.Fatalf("%s %v, want %v over %v", what, got, want.Rel(), u)
		}
	})
}
