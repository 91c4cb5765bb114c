package ivm

// Property test: Update.String() must be a faithful serialization —
// reparsing it with ParseUpdate yields the identical update, for every
// scalar kind. This is load-bearing for durability: the WAL logs deltas
// in exactly this textual form, so a rendering that changes a value's
// identity (e.g. float 5.0 printed as "5" and reparsed as int 5) would
// silently corrupt recovered state.

import (
	"math"
	"math/rand"
	"testing"

	"ivm/internal/value"
)

func randomScalar(rng *rand.Rand) value.Value {
	switch rng.Intn(3) {
	case 0: // int, both signs, large magnitudes (MinInt64 has no literal)
		n := rng.Int63()
		if rng.Intn(2) == 0 {
			n = -n
		}
		return value.NewInt(n)
	case 1: // float: whole, fractional, tiny, huge, negative zero
		switch rng.Intn(6) {
		case 0:
			return value.NewFloat(float64(rng.Intn(100))) // whole: the 5.0 bug
		case 1:
			return value.NewFloat(-float64(rng.Intn(100)))
		case 2:
			return value.NewFloat(rng.NormFloat64())
		case 3:
			return value.NewFloat(rng.NormFloat64() * 1e21) // exponent form
		case 4:
			return value.NewFloat(rng.NormFloat64() * 1e-9)
		default:
			return value.NewFloat(math.Copysign(0, -1)) // -0.0
		}
	default: // string: identifiers, quoted forms, unicode, and every kind of
		// escape strconv.Quote renders — control bytes, unprintable runes,
		// bytes of malformed UTF-8 (a fuzz-smoke finding: "\xe8" did not
		// re-parse)
		alphabet := []string{"a", "b", "c", "X", "Y", "Z", "0", "1", "9", " ", "_", `"`, `\`, ",", "(", ")", ".", ":", "-", "+", "*",
			"π", "%", "#", "/", "\n", "\t", "\r", "\a", "\b", "\f", "\v", "\x00", "\x7f", "\xe8", "\xff\xfe", "\u2028", "\u00ad", "\U0001F600"}
		var s []byte
		for n := rng.Intn(8); n > 0; n-- {
			s = append(s, alphabet[rng.Intn(len(alphabet))]...)
		}
		return value.NewString(string(s))
	}
}

func TestPropertyUpdateStringRoundTrip(t *testing.T) {
	preds := []struct {
		name  string
		arity int
	}{{"p", 1}, {"q", 2}, {"r", 3}}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		u := NewUpdate()
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			p := preds[rng.Intn(len(preds))]
			tup := make(value.Tuple, p.arity)
			for j := range tup {
				tup[j] = randomScalar(rng)
			}
			count := int64(rng.Intn(7) - 3)
			if count == 0 {
				count = 1
			}
			u.InsertTuple(p.name, tup, count)
		}
		src := u.String()
		got, err := ParseUpdate(src)
		if err != nil {
			t.Fatalf("trial %d: ParseUpdate(%q): %v", trial, src, err)
		}
		if len(got.per) != len(u.per) {
			t.Fatalf("trial %d: %d preds reparsed from %d\nscript:\n%s", trial, len(got.per), len(u.per), src)
		}
		for pred, want := range u.per {
			have := got.per[pred]
			if have == nil {
				t.Fatalf("trial %d: predicate %s lost\nscript:\n%s", trial, pred, src)
			}
			wr, hr := want.SortedRows(), have.SortedRows()
			if len(wr) != len(hr) {
				t.Fatalf("trial %d: %s: %d rows reparsed from %d\nscript:\n%s", trial, pred, len(hr), len(wr), src)
			}
			for i := range wr {
				if !wr[i].Tuple.Equal(hr[i].Tuple) || wr[i].Count != hr[i].Count {
					t.Fatalf("trial %d: %s row %d: %v ×%d reparsed as %v ×%d\nscript:\n%s",
						trial, pred, i, wr[i].Tuple, wr[i].Count, hr[i].Tuple, hr[i].Count, src)
				}
			}
		}
	}
}
