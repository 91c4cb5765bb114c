package value

import (
	"cmp"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{NewInt(7), Int},
		{NewFloat(3.5), Float},
		{NewString("x"), String},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Int promotes through Float()")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("Str accessor")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Float on string", func() { NewString("x").Float() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
}

// == is the one equality: key identity, so kind and float bits count.
func TestEqual(t *testing.T) {
	if NewInt(1) != NewInt(1) {
		t.Error("1 == 1")
	}
	if NewInt(1) == NewFloat(1) {
		t.Error("Int 1 must not == Float 1.0 (== is identity, not numeric)")
	}
	if NewString("a") == NewString("b") {
		t.Error("a != b")
	}
	if NewInt(1) == NewString("1") {
		t.Error("cross-kind")
	}
	if NewFloat(math.NaN()) != NewFloat(math.NaN()) {
		t.Error("NaN == NaN: same bits")
	}
	if NewFloat(0) == NewFloat(math.Copysign(0, -1)) {
		t.Error("0.0 must not == -0.0: different bits")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{
		NewInt(-5), NewInt(0), NewInt(3), NewFloat(-5.5), NewFloat(0),
		NewFloat(2.5), NewString(""), NewString("a"), NewString("zz"),
		NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)),
	}
	// Antisymmetry + transitivity via sort then pairwise check.
	slices.SortFunc(vals, Value.Compare)
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			c := vals[i].Compare(vals[j])
			switch {
			case i < j && c > 0:
				t.Fatalf("order violated at %v vs %v", vals[i], vals[j])
			case i > j && c < 0:
				t.Fatalf("order violated at %v vs %v", vals[i], vals[j])
			}
			if c != -vals[j].Compare(vals[i]) {
				t.Fatalf("antisymmetry violated at %v vs %v", vals[i], vals[j])
			}
			if (c == 0) != (vals[i] == vals[j]) {
				t.Fatalf("Compare(%v, %v) = %d disagrees with ==", vals[i], vals[j], c)
			}
		}
	}
	// Numerics sort before strings; NaN below every number.
	if NewInt(999).Compare(NewString("")) >= 0 {
		t.Error("numerics must sort before strings")
	}
	if NewFloat(math.NaN()).Compare(NewFloat(math.Inf(-1))) >= 0 {
		t.Error("NaN must sort below -Inf")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if NewInt(2).Compare(NewFloat(2.5)) >= 0 {
		t.Error("2 < 2.5")
	}
	if NewFloat(2.5).Compare(NewInt(3)) >= 0 {
		t.Error("2.5 < 3")
	}
	if NewInt(1<<53+1).Compare(NewFloat(1<<53)) <= 0 {
		t.Error("2^53+1 > 2^53.0: no rounding through float64")
	}
	// Equal numerically: ordering falls back to kind but stays consistent.
	a, b := NewInt(2), NewFloat(2)
	if a.Compare(b) == 0 {
		t.Error("Int 2 vs Float 2.0 must not compare equal (== is false)")
	}
	if a.Compare(b) != -b.Compare(a) {
		t.Error("tie-break must be antisymmetric")
	}
	// CompareNumeric drops only that tie-break.
	if a.CompareNumeric(b) != 0 {
		t.Error("CompareNumeric: 2 = 2.0")
	}
}

// compareDomain draws a value: any int, any float bits (NaN payloads and
// subnormals included), the float nearest an int, one of the values where
// the order is easiest to get wrong, or a short string.
func compareDomain(kind uint8, n uint64) Value {
	specials := []Value{
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewInt(0), NewInt(1), NewFloat(1), NewFloat(0.5), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(1 << 63), NewFloat(-1 << 63), NewString(""), NewString("a"),
	}
	for _, i := range []int64{1<<53 + 1, 1<<53 - 1, -1<<53 - 1, -1<<53 + 1} {
		specials = append(specials, NewInt(i), NewFloat(float64(i)))
	}
	switch kind % 5 {
	case 0:
		return NewInt(int64(n))
	case 1:
		return NewFloat(math.Float64frombits(n))
	case 2:
		return NewFloat(float64(int64(n)))
	case 3:
		return specials[n%uint64(len(specials))]
	}
	return NewString(strings.Repeat("a", int(n%3)))
}

// wantCompare is Compare's documented order built from math/big: NaNs
// (by bits), then numbers by exact value, then strings; among numbers of
// one exact value the Int, then -0.0, then 0.0 — except that for
// CompareNumeric (numeric) an Int and a Float of one value tie.
func wantCompare(a, b Value, numeric bool) int {
	rank := func(v Value) int {
		switch {
		case v.Kind() == String:
			return 2
		case v.Kind() == Float && math.IsNaN(v.Float()):
			return 0
		}
		return 1
	}
	exact := func(v Value) *big.Float {
		if v.Kind() == Int {
			return new(big.Float).SetInt64(v.Int())
		}
		return new(big.Float).SetFloat64(v.Float())
	}
	tie := func(v Value) int {
		switch {
		case v.Kind() == Int:
			return 0
		case math.Signbit(v.Float()):
			return 1
		}
		return 2
	}
	if c := cmp.Compare(rank(a), rank(b)); c != 0 {
		return c
	}
	switch rank(a) {
	case 0:
		return cmp.Compare(int64(math.Float64bits(a.Float())), int64(math.Float64bits(b.Float())))
	case 2:
		return strings.Compare(a.Str(), b.Str())
	}
	if c := exact(a).Cmp(exact(b)); c != 0 || numeric && a.Kind() != b.Kind() {
		return c
	}
	return cmp.Compare(tie(a), tie(b))
}

// FuzzCompare generalises TestEqual, TestCompareTotalOrder and
// TestCompareNumericCrossKind. It checks Compare and CompareNumeric
// against wantCompare and, over every order of a triple, that Compare is
// antisymmetric and transitive and is 0 exactly when == holds and exactly
// when the keys are equal.
func FuzzCompare(f *testing.F) {
	for i := uint64(0); i < 25; i++ {
		f.Add(uint8(3), uint8(3), uint8(3), i, (i+1)%25, (i+7)%25)
	}
	f.Add(uint8(0), uint8(2), uint8(1), uint64(1<<53+1), uint64(1<<53+1), uint64(0x7ff8000000000001))
	f.Add(uint8(0), uint8(1), uint8(1), uint64(0), uint64(1<<63), uint64(0))
	f.Fuzz(func(t *testing.T, ka, kb, kc uint8, na, nb, nc uint64) {
		vals := []Value{compareDomain(ka, na), compareDomain(kb, nb), compareDomain(kc, nc)}
		for _, p := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			a, b, c := vals[p[0]], vals[p[1]], vals[p[2]]
			ab := a.Compare(b)
			if want := wantCompare(a, b, false); ab != want || b.Compare(a) != -ab {
				t.Fatalf("Compare(%v, %v) = %d, reversed %d; want %d", a, b, ab, b.Compare(a), want)
			}
			if (ab == 0) != (a == b) || (a == b) != (Tuple{a}.Key() == Tuple{b}.Key()) {
				t.Fatalf("%v, %v: Compare %d, == %v, keys %q %q", a, b, ab, a == b, Tuple{a}.Key(), Tuple{b}.Key())
			}
			if got, want := a.CompareNumeric(b), wantCompare(a, b, true); got != want {
				t.Fatalf("CompareNumeric(%v, %v) = %d, want %d", a, b, got, want)
			}
			if ab <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
				t.Fatalf("not transitive: %v <= %v <= %v but Compare(%v, %v) > 0", a, b, c, a, c)
			}
		}
	})
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	v, err := Add(NewInt(2), NewInt(3))
	check(v, err, NewInt(5))
	v, err = Add(NewInt(2), NewFloat(0.5))
	check(v, err, NewFloat(2.5))
	v, err = Sub(NewInt(2), NewInt(5))
	check(v, err, NewInt(-3))
	v, err = Mul(NewFloat(1.5), NewInt(4))
	check(v, err, NewFloat(6))
	v, err = Div(NewInt(7), NewInt(2))
	check(v, err, NewInt(3)) // integer division truncates
	v, err = Div(NewFloat(7), NewInt(2))
	check(v, err, NewFloat(3.5))
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Add(NewString("x"), NewInt(1)); err == nil {
		t.Error("string + int must error")
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero must error")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero must error")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"7":        NewInt(7),
		"-3":       NewInt(-3),
		"2.5":      NewFloat(2.5),
		"5.0":      NewFloat(5), // whole floats keep a ".0" so they reparse as floats
		"-2.0":     NewFloat(-2),
		"1e+21":    NewFloat(1e21),
		"1e-07":    NewFloat(1e-7),
		"abc":      NewString("abc"),
		`"Abc"`:    NewString("Abc"), // would parse as a variable → quoted
		`"a b"`:    NewString("a b"),
		`"9lives"`: NewString("9lives"),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("%#v.String() = %q, want %q", v, v.String(), want)
		}
	}
}

// TestAppendTextMatchesString: AppendText is String without the string —
// same bytes for every kind, appended after whatever dst already holds,
// and no allocation when dst has room.
func TestAppendTextMatchesString(t *testing.T) {
	vals := []Value{
		NewInt(0), NewInt(7), NewInt(-3), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(2.5), NewFloat(5), NewFloat(-2), NewFloat(1e21), NewFloat(1e-7), NewFloat(-0.0),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()), NewFloat(math.MaxFloat64),
		NewString("abc"), NewString("a_b9"), NewString("Abc"), NewString("_x"), NewString("9lives"),
		NewString(""), NewString("a b"), NewString(`q"uo\te`), NewString("tab\there\n\x00\x7f"),
		NewString("héllo wörld ✓"), NewString("bad\xff\xfeutf8"), NewString("\u2028"),
	}
	for _, v := range vals {
		want := v.String()
		if got := string(v.AppendText(nil)); got != want {
			t.Errorf("%#v: AppendText = %q, String = %q", v, got, want)
		}
		if got := string(v.AppendText([]byte("x="))); got != "x="+want {
			t.Errorf("%#v: AppendText after a prefix = %q, want %q", v, got, "x="+want)
		}
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			buf = v.AppendText(buf[:0])
		}
	}); n != 0 {
		t.Errorf("AppendText into a roomy buffer allocated %.0f objects per run, want 0", n)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Tricky near-collisions.
	pairs := [][2]Tuple{
		{T("ab", "c"), T("a", "bc")},
		{T("a|b"), T("a", "b")},
		{T(1, 2), T(12)},
		{T(1), T(1.0)},
		{T("1"), T(1)},
		{T(), T("")},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("key collision: %v vs %v", p[0], p[1])
		}
	}
	if !T(1, "a").Equal(T(1, "a")) || T(1, "a").Key() != T(1, "a").Key() {
		t.Error("identical tuples must share keys")
	}
}

func TestTupleKeyQuick(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		t1 := T(a1, a2)
		t2 := T(b1, b2)
		return (t1.Key() == t2.Key()) == t1.Equal(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCompare(t *testing.T) {
	if T(1, 2).Compare(T(1, 3)) >= 0 {
		t.Error("(1,2) < (1,3)")
	}
	if T(1).Compare(T(1, 0)) >= 0 {
		t.Error("shorter sorts first on ties")
	}
	if T(2).Compare(T(1, 9)) <= 0 {
		t.Error("(2) > (1,9)")
	}
	if T("a", 1).Compare(T("a", 1)) != 0 {
		t.Error("equal tuples compare 0")
	}
}

func TestTupleProjectCloneString(t *testing.T) {
	tu := T("a", 1, 2.5)
	p := tu.Project([]int{2, 0})
	if !p.Equal(T(2.5, "a")) {
		t.Errorf("project: %v", p)
	}
	if tu.String() != "(a, 1, 2.5)" {
		t.Errorf("String: %q", tu.String())
	}
}

func TestFloatKeyHandlesSpecials(t *testing.T) {
	a := T(math.Inf(1))
	b := T(math.Inf(-1))
	if a.Key() == b.Key() {
		t.Error("±Inf must not collide")
	}
}

func TestTConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("T with unsupported type must panic")
		}
	}()
	T([]int{1})
}

// randomTuple draws the values that stress the key encoding: negative
// and extreme ints, special floats, and strings that are empty, contain
// the encoding's own separators, or outgrow a 128-byte scratch buffer.
func randomTuple(rng *rand.Rand) Tuple {
	t := make(Tuple, rng.Intn(5))
	for i := range t {
		switch rng.Intn(9) {
		case 0:
			t[i] = NewInt(-rng.Int63())
		case 1:
			t[i] = NewInt([]int64{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)])
		case 2:
			t[i] = NewInt(int64(rng.Intn(100)))
		case 3:
			t[i] = NewFloat(rng.NormFloat64() * 1e6)
		case 4:
			t[i] = NewFloat([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1}[rng.Intn(6)])
		case 5:
			t[i] = NewString("")
		case 6:
			t[i] = NewString(strings.Repeat("long|s3:", 17+rng.Intn(40))) // > 128 bytes
		case 7:
			t[i] = NewString([]string{"|", "s1:a|", "i1", "a|b", ":"}[rng.Intn(5)])
		default:
			t[i] = NewString(string(rune('a' + rng.Intn(26))))
		}
	}
	return t
}

func TestAppendKeyMatchesKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	for i := 0; i < 5000; i++ {
		tu := randomTuple(rng)
		want := tu.Key()
		if got := string(tu.AppendKey(nil)); got != want {
			t.Fatalf("AppendKey(nil) of %v = %q, Key = %q", tu, got, want)
		}
		// Into a scratch buffer the way probes call it: small enough that
		// long tuples spill, and with bytes already in front.
		var buf [128]byte
		if got := string(tu.AppendKey(buf[:0])); got != want {
			t.Fatalf("AppendKey(scratch) of %v = %q, Key = %q", tu, got, want)
		}
		if got := string(tu.AppendKey([]byte("pre"))); got != "pre"+want {
			t.Fatalf("AppendKey must append: %q", got)
		}
		// The projection key is the key of the projection.
		cols := make([]int, 0, len(tu))
		for c := range tu {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		if got, want := string(tu.AppendProjKey(buf[:0], cols)), tu.Project(cols).Key(); got != want {
			t.Fatalf("AppendProjKey(%v, %v) = %q, Project.Key = %q", tu, cols, got, want)
		}
		// Injective against a second draw.
		if other := randomTuple(rng); (other.Key() == want) != tu.Equal(other) {
			t.Fatalf("key injectivity broken for %v vs %v", tu, other)
		}
	}
}

// A key decodes back to the tuple it encodes (strings aliasing the key),
// keys laid end to end are walked by their arity alone, and nothing but
// the canonical spelling of a tuple is accepted.
// tupleFromKey decodes key into a fresh tuple of arity values.
func tupleFromKey(key string, arity int) (Tuple, error) {
	tu := make(Tuple, arity)
	return tu, DecodeKey(tu, key)
}

func TestTupleFromKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var stream []byte
	var tuples []Tuple
	for i := 0; i < 3000; i++ {
		tu := randomTuple(rng)
		key := tu.Key()
		got, err := tupleFromKey(key, len(tu))
		if err != nil || !got.Equal(tu) {
			t.Fatalf("DecodeKey(%q, %d) = %v, %v; want %v", key, len(tu), got, err, tu)
		}
		if n, err := KeyLen([]byte(key+"i7|trailing"), len(tu)); err != nil || n != len(key) {
			t.Fatalf("KeyLen(%q...) = %d, %v; want %d", key, n, err, len(key))
		}
		if _, err := tupleFromKey(key, len(tu)+1); err == nil {
			t.Fatalf("DecodeKey(%q) accepted arity %d", key, len(tu)+1)
		}
		if len(tu) > 0 {
			if _, err := tupleFromKey(key, len(tu)-1); err == nil {
				t.Fatalf("DecodeKey(%q) accepted arity %d", key, len(tu)-1)
			}
			if _, err := KeyLen([]byte(key[:len(key)-1]), len(tu)); err == nil {
				t.Fatalf("KeyLen accepted a key cut short: %q", key[:len(key)-1])
			}
		}
		stream, tuples = append(stream, key...), append(tuples, tu)
	}
	for _, tu := range tuples {
		n, err := KeyLen(stream, len(tu))
		if err != nil || string(stream[:n]) != tu.Key() {
			t.Fatalf("walking the stream: KeyLen = %d, %v at %q", n, err, stream[:min(len(stream), 40)])
		}
		stream = stream[n:]
	}
}

func TestTupleFromKeyRefusesNonCanonicalKeys(t *testing.T) {
	for _, key := range []string{
		"i07|", "i+7|", "i-0|", "i|", "i9223372036854775808|", "i7", "i7|x",
		"f03ff0000000000000|", "f3FF0000000000000|", "f|", "fg|", "f10000000000000000|",
		"s01:a|", "s2:a|", "s1:ab|", "s:|", "s1a|", "s-1:a|", "s99999999999999999999:a|",
		"x1|", "|", "",
	} {
		if tu, err := tupleFromKey(key, 1); err == nil {
			t.Errorf("DecodeKey(%q) = %v, want an error", key, tu)
		}
	}
}

func FuzzTupleFromKey(f *testing.F) {
	f.Add("s1:a|i-7|f3ff0000000000000|", 3)
	f.Add("s99999999999999999999:a|", 1)
	f.Add("", 0)
	f.Fuzz(func(t *testing.T, key string, arity int) {
		if arity < 0 || arity > 64 {
			return
		}
		n, lenErr := KeyLen([]byte(key), arity)
		if lenErr == nil && (n < 0 || n > len(key)) {
			t.Fatalf("KeyLen(%q, %d) = %d", key, arity, n)
		}
		tu, err := tupleFromKey(key, arity)
		if err != nil {
			return
		}
		if tu.Key() != key || len(tu) != arity || lenErr != nil || n != len(key) {
			t.Fatalf("DecodeKey(%q, %d) = %v (key %q), KeyLen = %d, %v", key, arity, tu, tu.Key(), n, lenErr)
		}
	})
}
