package value

import (
	"math"
	"math/rand"
	"sort"
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

func TestEqual(t *testing.T) {
	if !NewInt(1).Equal(NewInt(1)) {
		t.Error("1 == 1")
	}
	if NewInt(1).Equal(NewFloat(1)) {
		t.Error("Int 1 must not Equal Float 1.0 (Equal is identity, not numeric)")
	}
	if NewString("a").Equal(NewString("b")) {
		t.Error("a != b")
	}
	if NewInt(1).Equal(NewString("1")) {
		t.Error("cross-kind")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vals := []Value{
		NewInt(-5), NewInt(0), NewInt(3), NewFloat(-5.5), NewFloat(0),
		NewFloat(2.5), NewString(""), NewString("a"), NewString("zz"),
	}
	// Antisymmetry + transitivity via sort then pairwise check.
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
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
		}
	}
	// Numerics sort before strings.
	if NewInt(999).Compare(NewString("")) >= 0 {
		t.Error("numerics must sort before strings")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if NewInt(2).Compare(NewFloat(2.5)) >= 0 {
		t.Error("2 < 2.5")
	}
	if NewFloat(2.5).Compare(NewInt(3)) >= 0 {
		t.Error("2.5 < 3")
	}
	// Equal numerically: ordering falls back to kind but stays consistent.
	a, b := NewInt(2), NewFloat(2)
	if a.Compare(b) == 0 {
		t.Error("Int 2 vs Float 2.0 must not compare equal (Equal is false)")
	}
	if a.Compare(b) != -b.Compare(a) {
		t.Error("tie-break must be antisymmetric")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
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
	c := tu.Clone()
	c[0] = NewString("z")
	if !tu[0].Equal(NewString("a")) {
		t.Error("clone must be independent")
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
		if other := randomTuple(rng); (other.Key() == want) != keyEqual(tu, other) {
			t.Fatalf("key injectivity broken for %v vs %v", tu, other)
		}
	}
}

// keyEqual is Tuple.Equal except that NaN equals NaN: keys encode the
// float's bits.
func keyEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() == Float && b[i].Kind() == Float {
			if math.Float64bits(a[i].Float()) != math.Float64bits(b[i].Float()) {
				return false
			}
		} else if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// A key decodes back to the tuple it encodes (strings aliasing the key),
// keys laid end to end are walked by their arity alone, and nothing but
// the canonical spelling of a tuple is accepted.
func TestTupleFromKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var stream []byte
	var tuples []Tuple
	for i := 0; i < 3000; i++ {
		tu := randomTuple(rng)
		key := tu.Key()
		got, err := TupleFromKey(key, len(tu))
		if err != nil || !keyEqual(got, tu) {
			t.Fatalf("TupleFromKey(%q, %d) = %v, %v; want %v", key, len(tu), got, err, tu)
		}
		if n, err := KeyLen([]byte(key+"i7|trailing"), len(tu)); err != nil || n != len(key) {
			t.Fatalf("KeyLen(%q...) = %d, %v; want %d", key, n, err, len(key))
		}
		if _, err := TupleFromKey(key, len(tu)+1); err == nil {
			t.Fatalf("TupleFromKey(%q) accepted arity %d", key, len(tu)+1)
		}
		if len(tu) > 0 {
			if _, err := TupleFromKey(key, len(tu)-1); err == nil {
				t.Fatalf("TupleFromKey(%q) accepted arity %d", key, len(tu)-1)
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
		if tu, err := TupleFromKey(key, 1); err == nil {
			t.Errorf("TupleFromKey(%q) = %v, want an error", key, tu)
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
		tu, err := TupleFromKey(key, arity)
		if err != nil {
			return
		}
		if tu.Key() != key || len(tu) != arity || lenErr != nil || n != len(key) {
			t.Fatalf("TupleFromKey(%q, %d) = %v (key %q), KeyLen = %d, %v", key, arity, tu, tu.Key(), n, lenErr)
		}
	})
}
