package relation

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ivm/internal/value"
)

var sinkRow Row

// A row the relation package builds is one allocation, its values and key
// in one block, whatever its arity and key length: past arity 4 or 64 key
// bytes, of a type built for its shape.
func TestBuiltRowIsOneAllocation(t *testing.T) {
	for _, c := range []struct {
		name   string
		tuple  value.Tuple // its first value a 3-digit int, which AddDerived varies
		keyLen int
		want   float64
	}{
		{"arity 2", value.T(100, "ab"), 11, 1},
		{"arity 4, 64-byte key", value.T(100, "b", "c", strings.Repeat("d", 44)), 64, 1},
		{"arity 5", value.T(100, 2, 3, 4, 5), 17, 1},
		{"65-byte key", value.T(100, strings.Repeat("x", 55)), 65, 1},
	} {
		kb := c.tuple.AppendKey(nil)
		if len(kb) != c.keyLen {
			t.Fatalf("%s: setup: %d key bytes, want %d", c.name, len(kb), c.keyLen)
		}
		r := NewSized(len(c.tuple), 256)
		scratch, n := append(value.Tuple(nil), c.tuple...), int64(100)
		got := map[string]float64{
			"AddDerived": testing.AllocsPerRun(100, func() {
				n++
				scratch[0] = value.NewInt(n)
				r.AddDerived(scratch, 1)
			}),
			"RowFromKey": testing.AllocsPerRun(100, func() { sinkRow, _ = RowFromKey(kb, len(c.tuple)) }),
			"KeyedRow":   testing.AllocsPerRun(100, func() { sinkRow = KeyedRow(c.tuple, 1) }),
		}
		for via, allocs := range got {
			if allocs != c.want {
				t.Errorf("%s: a new row through %s allocates %.0f objects, want %.0f", c.name, via, allocs, c.want)
			}
		}
		// Each way gives a row whose key is its tuple's, right behind its
		// values, and whose tuple has no room past its values: an append
		// copies, never writes the key. A row keyed apart from its values,
		// which no relation makes, is stored as a copy in one block.
		row, err := RowFromKey(kb, len(c.tuple))
		apart := New(len(c.tuple))
		apart.AddRow(Row{Tuple: c.tuple, Count: 1, key: string(kb)})
		for via, row := range map[string]Row{"AddDerived": r.At(0), "RowFromKey": row, "KeyedRow": KeyedRow(c.tuple, 1), "AddRow of a row keyed apart": apart.At(0)} {
			if err != nil || row.key != row.Tuple.Key() || cap(row.Tuple) != len(c.tuple) || unsafe.StringData(row.key) != behind(unsafe.SliceData(row.Tuple), len(c.tuple)) {
				t.Fatalf("%s via %s: row %v keyed %q, capacity %d, not one block (%v)", c.name, via, row.Tuple, row.key, cap(row.Tuple), err)
			}
			key := strings.Clone(row.key)
			_ = append(row.Tuple, value.NewInt(-1))
			if row.key != key {
				t.Fatalf("%s via %s: an append to the tuple wrote its key: %q, was %q", c.name, via, row.key, key)
			}
		}
	}
}

// A block's values are scanned by the collector: string values that only
// blocks reach — a KeyedRow's, which point at the caller's strings, and a
// RowFromKey's, which point into the block's own key — survive collections
// while the garbage around them is reused.
func TestBlockValuesSurviveCollection(t *testing.T) {
	const n = 2000
	want := func(i int) string { return fmt.Sprintf("v%d-%s", i, strings.Repeat("y", i%40)) }
	rows := make([]Row, 0, 2*n)
	for i := range n {
		s := strings.Clone(want(i)) // reachable from the block only
		rows = append(rows, KeyedRow(value.T(i, s), 1))
		row, err := RowFromKey(value.T(s, i).AppendKey(nil), 2)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	for range 3 {
		runtime.GC()
		junk := make([]string, 0, 4*n)
		for i := range 4 * n {
			junk = append(junk, strings.Repeat("z", i%48+1))
		}
		runtime.KeepAlive(junk)
	}
	for i := range n {
		kr, dr := rows[2*i], rows[2*i+1]
		if kr.Tuple[1].Str() != want(i) || dr.Tuple[0].Str() != want(i) || kr.key != kr.Tuple.Key() || dr.key != dr.Tuple.Key() {
			t.Fatalf("row %d after collections: %v keyed %q, %v keyed %q; want %q", i, kr.Tuple, kr.key, dr.Tuple, dr.key, want(i))
		}
		if unsafe.StringData(dr.Tuple[0].Str()) != unsafe.StringData(dr.key[strings.IndexByte(dr.key, ':')+1:]) {
			t.Fatalf("row %d: RowFromKey's string does not alias its key", i)
		}
	}
}
