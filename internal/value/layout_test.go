package value

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// A Value is {kind, n, s}: an Int and a Float share n. What it renders,
// compares and computes to is pinned below to what the {kind, i, f, s}
// layout produced — keys are map keys, WAL records and the wire, so not
// one byte may move.

func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// layoutValues are the values where sharing one word between the int and
// the float could show: the extremes, both zeros, the specials, 1 beside
// 1.0, and strings made of the key encoding's own separators.
var layoutValues = []Value{
	NewInt(0), NewInt(1), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(-2.5),
	NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.SmallestNonzeroFloat64),
	NewString(""), NewString("a"), NewString("|"), NewString("s1:a|i7|"), NewString("1"),
}

func TestKeyAndTextGolden(t *testing.T) {
	golden := []struct{ key, text string }{
		{"i0|", "0"}, {"i1|", "1"}, {"i-1|", "-1"},
		{"i-9223372036854775808|", "-9223372036854775808"}, {"i9223372036854775807|", "9223372036854775807"},
		{"f0|", "0.0"}, {"f8000000000000000|", "-0.0"}, {"f3ff0000000000000|", "1.0"}, {"fc004000000000000|", "-2.5"},
		{"f7ff8000000000001|", "NaN"}, {"f7ff0000000000000|", "+Inf"}, {"ffff0000000000000|", "-Inf"}, {"f1|", "5e-324"},
		{"s0:|", `""`}, {"s1:a|", "a"}, {"s1:||", `"|"`}, {"s8:s1:a|i7||", `"s1:a|i7|"`}, {"s1:1|", `"1"`},
	}
	for i, v := range layoutValues {
		tu := Tuple{v}
		if got := string(tu.AppendKey(nil)); got != golden[i].key || tu.Key() != got {
			t.Errorf("AppendKey(%v) = %q (Key %q), want %q", v, got, tu.Key(), golden[i].key)
		}
		if got := string(v.AppendText(nil)); got != golden[i].text || v.String() != got {
			t.Errorf("AppendText(%v) = %q (String %q), want %q", v, got, v.String(), golden[i].text)
		}
		back, err := tupleFromKey(golden[i].key, 1)
		if err != nil || back[0].Kind() != v.Kind() || back.Key() != golden[i].key {
			t.Errorf("DecodeKey(%q) = %v, %v; want %v back", golden[i].key, back, err, v)
		}
	}
	// All of them in one tuple: the framing holds across neighbours.
	all := Tuple(layoutValues)
	var want strings.Builder
	for _, g := range golden {
		want.WriteString(g.key)
	}
	back, err := tupleFromKey(all.Key(), len(all))
	if all.Key() != want.String() || err != nil || back.Key() != want.String() {
		t.Errorf("the tuple of all values keys to %q (decoded %v, %v), want %q", all.Key(), back, err, want.String())
	}
}

// opsTranscript renders ==, Compare and the four arithmetic results
// (as keys, so that the sign of a zero shows) for every ordered pair.
func opsTranscript() string {
	var sb strings.Builder
	res := func(v Value, err error) string {
		switch {
		case err != nil:
			return err.Error()
		case v.Kind() == Float && math.IsNaN(v.Float()):
			return "NaN" // the payload of a computed NaN is the processor's choice
		}
		return string(Tuple{v}.AppendKey(nil))
	}
	for _, a := range layoutValues {
		for _, b := range layoutValues {
			fmt.Fprintf(&sb, "%s %s eq=%v cmp=%d add=%s sub=%s mul=%s div=%s\n",
				Tuple{a}.Key(), Tuple{b}.Key(), a == b, a.Compare(b),
				res(Add(a, b)), res(Sub(a, b)), res(Mul(a, b)), res(Div(a, b)))
		}
	}
	return sb.String()
}

// testdata/ops.golden was written by opsTranscript at the commit before
// the layout changed. Its eq= and cmp= columns were rewritten once, when
// == became the only equality and Compare the total order consistent with
// it; every other column is still the old layout's.
func TestOpsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/ops.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := opsTranscript()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[min(i, len(wl)-1)])
		}
	}
	t.Fatalf("transcript has %d lines, golden %d", len(gl), len(wl))
}
