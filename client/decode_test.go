package client

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The hand decoder against encoding/json. shadowDelta has Delta's fields
// and tags but no UnmarshalJSON, so decoding the same bytes into it is
// what the reflective path produced before Delta decoded itself.

type shadowRow struct {
	Tuple []string `json:"tuple"`
	Count int64    `json:"count"`
}

type shadowDelta struct {
	Pred     string      `json:"pred"`
	Inserted []shadowRow `json:"inserted,omitempty"`
	Deleted  []shadowRow `json:"deleted,omitempty"`
}

func (s shadowDelta) delta() Delta {
	conv := func(rows []shadowRow) []Row {
		if rows == nil {
			return nil
		}
		out := make([]Row, len(rows))
		for i, r := range rows {
			out[i] = Row(r)
		}
		return out
	}
	return Delta{Pred: s.Pred, Inserted: conv(s.Inserted), Deleted: conv(s.Deleted)}
}

// checkAgainstJSON decodes data both ways — through json.Unmarshal (which
// validates, then calls Delta.UnmarshalJSON) and by calling the method
// directly — and, whenever encoding/json accepts data for the shadow
// struct, requires both to succeed with a deeply equal result (nil and
// empty slices told apart).
func checkAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	var want shadowDelta
	wantErr := json.Unmarshal(data, &want)
	var got, direct Delta
	gotErr := json.Unmarshal(data, &got)
	directErr := direct.UnmarshalJSON(data) // must not panic, whatever data is
	if wantErr != nil {
		return
	}
	if gotErr != nil || directErr != nil {
		t.Fatalf("encoding/json accepts %q but the hand decoder fails: via Unmarshal %v, direct %v", data, gotErr, directErr)
	}
	if w := want.delta(); !reflect.DeepEqual(got, w) || !reflect.DeepEqual(direct, w) {
		t.Fatalf("decoding %q:\n hand (via Unmarshal) %#v\n hand (direct)        %#v\n encoding/json        %#v", data, got, direct, w)
	}
}

// decodeSeeds are the documents worth naming: the shapes the server
// emits, then every encoding/json quirk the decoder reproduces.
var decodeSeeds = []string{
	`{"pred":"hop","inserted":[{"tuple":["a","b"],"count":1}]}`,
	`{"pred":"hop","inserted":[{"tuple":["a","b"],"count":1},{"tuple":["a","c"],"count":2}],"deleted":[{"tuple":["x","y"],"count":1}]}`,
	`{"pred":"deg","deleted":[{"tuple":["a","3"],"count":1}]}`,
	`{"pred":"p","inserted":[{"tuple":["\"quoted \\\"x\\\"\"","5.0","-9223372036854775808"],"count":9223372036854775807}]}`,
	`{"pred":"p","inserted":[{"tuple":["\"a\u003cb\u0026c\u003e\"","\"\\u2028\"","\"h\u00e9llo\""],"count":1}]}`,
	`{"pred":"zero","inserted":[{"tuple":[],"count":1}]}`,
	` { "pred" : "ws" , "inserted" : [ { "tuple" : [ "a" , "b" ] , "count" : 3 } ] } `,
	`null`,
	`{}`,
	`{"pred":null,"inserted":null,"deleted":null}`,
	`{"pred":"p","inserted":[],"deleted":[]}`,
	`{"pred":"p","inserted":[null,{"tuple":null,"count":null},{}]}`,
	`{"pred":"p","inserted":[{"tuple":[null,"a",null],"count":-0}]}`,
	`{"PRED":"folded","Inserted":[{"TUPLE":["a"],"Count":2}],"DELETED":[{"tuple":["b"],"count":1}]}`,
	`{"pred":"p","in\u017ferted":[{"tuple":["long s"],"count":1}]}`,
	`{"pr\u0065d":"escaped key","inserted":[{"t\u0075ple":["a"],"count":1}]}`,
	`{"pred":"a","pred":"b","pred":null}`,
	`{"pred":"dup","inserted":[{"tuple":["a","b"],"count":5},{"tuple":["c"],"count":6}],"inserted":[{"count":7}]}`,
	`{"pred":"dup","inserted":[{"tuple":["a","b"],"count":5},{"tuple":["c"],"count":6}],"inserted":[{}],"inserted":[{},{"tuple":["z"]},{}]}`,
	`{"pred":"dup","inserted":[{"tuple":["a","b","c"],"count":5}],"inserted":[{"tuple":["x"]}],"inserted":[{"tuple":[null,null,null,"w"]}]}`,
	`{"pred":"dup","inserted":[{"tuple":["a"],"count":1}],"inserted":[],"inserted":[{"count":2}]}`,
	`{"pred":"dup","inserted":[{"tuple":["a"],"count":1}],"inserted":null,"inserted":[{"count":2}]}`,
	`{"pred":"p","extra":{"nested":[1,2,{"deep":"}]"}],"s":"\"}"},"inserted":[{"tuple":["a"],"count":1,"more":[[],{}]}],"z":1.5e3}`,
	`{"pred":"surrogates \ud83d\ude00 \ud83d x \ude00 \ud83d\u0041","inserted":[{"tuple":["\ud800\udc00","\udc00"],"count":1}]}`,
	`{"pred":"esc \b\f\n\r\t\/\\\" done","deleted":[{"tuple":["\u0000\u001f"],"count":1}]}`,
	"{\"pred\":\"bad utf8 \xff\xfe ok \xc3\",\"inserted\":[{\"tuple\":[\"\xe2\x82\"],\"count\":1}]}",
	// What encoding/json refuses (a wrong type anywhere, malformed input):
	// these only have to fail cleanly.
	`{"pred":5}`, `{"inserted":{}}`, `{"inserted":[5]}`, `{"inserted":[{"tuple":"a"}]}`, `{"inserted":[{"tuple":[1]}]}`,
	`{"inserted":[{"count":"1"}]}`, `{"inserted":[{"count":1.5}]}`, `{"inserted":[{"count":1e3}]}`,
	`{"inserted":[{"count":9223372036854775808}]}`, `{"inserted":[{"count":true}]}`,
	`[]`, `"s"`, `12`, `true`, ``, `{`, `{"pred"`, `{"pred":`, `{"pred":"x"`, `{"pred":"x",}`, `{"inserted":[`, `{"inserted":[{"tuple":["a"`,
	`{"pred":"x"} trailing`, `{"pred":"\q"}`, `{"pred":"\u12"}`, `{"pred":"unterminated`, "{\"pred\":\"ctl\x01\"}",
}

func TestDecodeDeltaAgainstEncodingJSON(t *testing.T) {
	for _, seed := range decodeSeeds {
		checkAgainstJSON(t, []byte(seed))
	}
}

// TestDecodeDeltaRandom: seeded random deltas, rendered by encoding/json
// from the shadow struct (so the bytes are what a reflective server
// would send), decode identically by hand — values drawn from the
// engine's whole surface syntax.
func TestDecodeDeltaRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		d := shadowDelta{Pred: randomText(rng)}
		d.Inserted = randomShadowRows(rng)
		d.Deleted = randomShadowRows(rng)
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstJSON(t, data)
	}
}

func randomShadowRows(rng *rand.Rand) []shadowRow {
	if rng.Intn(4) == 0 {
		return nil
	}
	rows := make([]shadowRow, rng.Intn(6))
	for i := range rows {
		rows[i].Count = []int64{1, 2, -1, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(6)]
		rows[i].Tuple = make([]string, rng.Intn(4))
		for j := range rows[i].Tuple {
			rows[i].Tuple[j] = randomText(rng)
		}
	}
	return rows
}

func randomText(rng *rand.Rand) string {
	pieces := []string{"a", "hop", "n42", "-7", "5.0", "1e+21", `"`, `\`, "<", ">", "&", "\n", "\t", "\x00", "\x7f",
		"é", "✓", "\u2028", "\u2029", "😀", "\xff", "\xc3", " ", "", `\u0041`, "/"}
	var sb strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// TestDecodeDeltaAllocations: a delta costs its parser, the copy of the
// document and the two slabs, whatever its row count — not a slice per row and a
// string per value.
func TestDecodeDeltaAllocations(t *testing.T) {
	for _, rows := range []int{10, 1000} {
		data := ackBody(1, rows)
		var d Delta
		if err := d.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if len(d.Inserted) != rows || len(d.Inserted[rows-1].Tuple) != 2 {
			t.Fatalf("decoded %d rows, want %d", len(d.Inserted), rows)
		}
		if n := testing.AllocsPerRun(20, func() {
			var d Delta
			if err := d.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
		}); n != 4 {
			t.Errorf("decoding a %d-row delta allocated %.0f objects, want 4 (parser, document copy, row slab, value slab)", rows, n)
		}
	}
}

// ackBody renders one Delta with the given number of inserted rows.
func ackBody(seed, rows int) []byte {
	d := shadowDelta{Pred: fmt.Sprintf("hop%d", seed)}
	for i := 0; i < rows; i++ {
		d.Inserted = append(d.Inserted, shadowRow{Tuple: []string{fmt.Sprintf("n%d", seed*100000+i), fmt.Sprintf("n%d", i*7)}, Count: 1})
	}
	data, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzDecodeDelta: the hand decoder never panics, and agrees with
// encoding/json on every input encoding/json accepts.
func FuzzDecodeDelta(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstJSON(t, data)
	})
}

// benchAck keeps the benchmarked decode observable.
var benchAck ApplyResult

// BenchmarkClientDecodeAck decodes the ack of a three-predicate commit
// of 512 rows per predicate, the shape replica_follow's applies return.
func BenchmarkClientDecodeAck(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`{"version":42,"deltas":[`)
	for i := 0; i < 3; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.Write(ackBody(i, 512))
	}
	sb.WriteString("]}\n")
	data := []byte(sb.String())
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res ApplyResult
		if err := json.Unmarshal(data, &res); err != nil {
			b.Fatal(err)
		}
		if len(res.Deltas) != 3 || len(res.Deltas[2].Inserted) != 512 {
			b.Fatal("short decode")
		}
		benchAck = res
	}
}
