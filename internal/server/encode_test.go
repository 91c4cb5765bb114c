package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"ivm"
	"ivm/client"
	"ivm/internal/metrics"
)

// The wire encoder against encoding/json. referenceDeltas is how deltas
// used to be rendered — value by value into client.Delta string trees
// for json.Marshal to walk — kept here as the oracle the hand encoder
// must match byte for byte.

func referenceDeltas(cs *ivm.ChangeSet) []client.Delta {
	var out []client.Delta
	for _, pred := range cs.Preds() {
		d := client.Delta{Pred: pred, Inserted: referenceRows(cs.Inserted(pred)), Deleted: referenceRows(cs.Deleted(pred))}
		if len(d.Inserted) > 0 || len(d.Deleted) > 0 {
			out = append(out, d)
		}
	}
	return out
}

func referenceRows(rows []ivm.Row) []client.Row {
	if len(rows) == 0 {
		return nil
	}
	out := make([]client.Row, len(rows))
	for i, r := range rows {
		out[i] = client.Row{Tuple: wireTuple(r.Tuple), Count: r.Count}
	}
	return out
}

// marshalLine is what json.NewEncoder(w).Encode(v) wrote: the compact
// document and a newline.
func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// encodeViews serves three visible views over two base tables plus the
// hidden auxiliary predicate SQL aggregation generates, under duplicate
// semantics so counts other than 1 occur.
func encodeViews(t testing.TB, opts ...ivm.Option) *ivm.Views {
	t.Helper()
	v, err := ivm.NewDatabase().MaterializeSQL(`
		CREATE TABLE a(x, y);
		CREATE TABLE b(x);
		CREATE VIEW p(x, y) AS SELECT x, y FROM a;
		CREATE VIEW q(x) AS SELECT x FROM b;
		CREATE VIEW n(x, c) AS SELECT x, COUNT(*) AS c FROM a GROUP BY x;
	`, append(opts, ivm.WithSemantics(ivm.DuplicateSemantics))...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// randomValue draws from the engine's whole value space: small, negative
// and extreme ints, floats that need the ".0", exponent forms and
// non-finite ones, identifiers, and strings that must be quoted —
// quotes, backslashes, control bytes, HTML-sensitive bytes, non-ASCII,
// the separators JSON escapes, and invalid UTF-8.
func randomValue(rng *rand.Rand) any {
	switch rng.Intn(4) {
	case 0:
		return []int64{0, 1, -1, 42, -7, math.MaxInt64, math.MinInt64, rng.Int63() - rng.Int63()}[rng.Intn(8)]
	case 1:
		return []float64{5, -2, 2.5, 1e21, 1e-7, -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64,
			math.Inf(1), math.Inf(-1), math.NaN(), rng.NormFloat64()}[rng.Intn(12)]
	case 2:
		return []string{"a", "b", "hop", "n42", "x_y"}[rng.Intn(5)]
	}
	pieces := []string{"A", "_", "9", " ", `"`, `\`, "<", ">", "&", "'", "/", "\n", "\t", "\b", "\f", "\r", "\x00", "\x1f", "\x7f",
		"\u00e9", "\u2713", "\U0001F600", "\u2028", "\u2029", "\ufffd", "\xff", "\xc3", "\xe2\x82"}
	var sb strings.Builder
	for n := rng.Intn(4); n >= 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// TestEncodeCommitMatchesEncodingJSON is the differential test of the
// wire: for seeded random change sets — insert-only, delete-only and
// mixed predicates, predicates that did not change (absent), the hidden
// predicate (absent) — the event, a filtered event, the acks and the rows
// document are byte-equal to encoding/json over the client structs, and
// an event decodes back into exactly those structs.
func TestEncodeCommitMatchesEncodingJSON(t *testing.T) {
	v := encodeViews(t)
	rng := rand.New(rand.NewSource(14))
	var as, bs [][]any // rows currently in a and b, to delete from
	shapes := make(map[string]int)
	for step := 0; step < 200; step++ {
		u := ivm.NewUpdate()
		kind := rng.Intn(5) // 0 insert a, 1 insert b, 2 delete, 3 mixed, 4 no visible change
		if kind == 0 || kind == 3 {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				row := []any{randomValue(rng), randomValue(rng)}
				as = append(as, row)
				u.Insert("a", row...)
			}
		}
		if kind == 1 || kind == 3 {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				row := []any{randomValue(rng)}
				bs = append(bs, row)
				u.Insert("b", row...)
			}
		}
		if kind == 2 || kind == 3 {
			// The oldest row goes, never one this update inserts.
			if len(as) > 4 && rng.Intn(2) == 0 {
				u.Delete("a", as[0]...)
				as = as[1:]
			}
			if len(bs) > 3 {
				u.Delete("b", bs[0]...)
				bs = bs[1:]
			}
		}
		if kind == 4 {
			u.Insert("unrelated", randomValue(rng))
		}
		cs, err := v.Apply(u)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref := referenceDeltas(cs)
		for _, d := range ref {
			if strings.Contains(d.Pred, "__g") {
				t.Fatalf("step %d: hidden predicate %s reached the wire", step, d.Pred)
			}
			shapes[fmt.Sprintf("%s ins=%v del=%v", d.Pred, len(d.Inserted) > 0, len(d.Deleted) > 0)]++
		}
		if len(ref) == 0 {
			shapes["no visible change"]++
		}

		c := encodeCommit(cs)
		if (c == nil) != (len(ref) == 0) {
			t.Fatalf("step %d: commit %v for %d visible deltas", step, c, len(ref))
		}
		if c != nil {
			all := &Subscriber{}
			if want := marshalLine(t, client.Event{Version: cs.Version(), Deltas: ref}); !bytes.Equal(all.Line(c), want) {
				t.Fatalf("step %d event:\n got  %s want %s", step, all.Line(c), want)
			}
			var decoded client.Event
			if err := json.Unmarshal(all.Line(c), &decoded); err != nil {
				t.Fatalf("step %d: decoding the event: %v", step, err)
			}
			if want := (client.Event{Version: cs.Version(), Deltas: ref}); !reflect.DeepEqual(decoded, want) {
				t.Fatalf("step %d: event decodes to %#v, want %#v", step, decoded, want)
			}
			// A subscriber to p and q only: its event is the selection of
			// fragments, byte-equal to marshalling the filtered deltas.
			only := &Subscriber{preds: map[string]bool{"p": true, "q": true}}
			var kept []client.Delta
			for _, d := range ref {
				if only.preds[d.Pred] {
					kept = append(kept, d)
				}
			}
			if c.kept(only.preds) != len(kept) {
				t.Fatalf("step %d: filter keeps %d fragments, want %d", step, c.kept(only.preds), len(kept))
			}
			if len(kept) > 0 {
				if want := marshalLine(t, client.Event{Version: cs.Version(), Deltas: kept}); !bytes.Equal(only.Line(c), want) {
					t.Fatalf("step %d filtered event:\n got  %s want %s", step, only.Line(c), want)
				}
			}
		}

		for _, pred := range []string{"p", "q", "n", "a", "missing", `odd "name" <&>`} {
			rows := v.Rows(pred)
			want := marshalLine(t, client.RowsResponse{Version: cs.Version(), Pred: pred, Rows: referenceRows(rows)})
			if got := encodeRows(cs.Version(), pred, rows); !bytes.Equal(got, want) {
				t.Fatalf("step %d rows(%s):\n got  %s want %s", step, pred, got, want)
			}
		}
	}
	// A deduped answer carries the version alone.
	first, _, err := v.ApplyIdempotent("k", ivm.NewUpdate().Insert("a", "dedup", 1))
	if err != nil {
		t.Fatal(err)
	}
	again, deduped, err := v.ApplyIdempotent("k", ivm.NewUpdate().Insert("a", "dedup", 1))
	if err != nil || !deduped {
		t.Fatalf("retry: deduped=%v err=%v", deduped, err)
	}
	if got, want := ackLine(again.Version(), true), marshalLine(t, client.ApplyResult{Version: first.Version(), Deduped: true}); !bytes.Equal(got, want) {
		t.Fatalf("deduped ack: got %s want %s", got, want)
	}
	// The stream must have exercised every shape it claims to cover.
	for _, shape := range []string{
		"p ins=true del=false", "p ins=false del=true", "p ins=true del=true",
		"q ins=true del=false", "q ins=false del=true", "q ins=true del=true", "n ins=true del=true", "no visible change",
	} {
		if shapes[shape] == 0 {
			t.Errorf("the random stream never produced %q (saw %v)", shape, shapes)
		}
	}
	for _, version := range []uint64{0, 7, math.MaxUint64} {
		if got, want := ackLine(version, true), marshalLine(t, client.ApplyResult{Version: version, Deduped: true}); !bytes.Equal(got, want) {
			t.Fatalf("deduped ack: got %s want %s", got, want)
		}
		if got, want := ackLine(version, false), marshalLine(t, client.ApplyResult{Version: version}); !bytes.Equal(got, want) {
			t.Fatalf("empty ack: got %s want %s", got, want)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON: every byte value and the
// runes encoding/json treats specially, as string and as []byte.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	var cases []string
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	cases = append(cases, "", "plain", "\u2028\u2029", "a\u2027b\u202ac", "\u00e9\u2713\U0001F600", "\xe2\x80", "\xe2\x80\xa8", "\xf0\x9f\x98", "\xed\xa0\x80", "\ufffd")
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
		if got := appendJSONString([]byte("k:"), []byte(s)); !bytes.Equal(got, append([]byte("k:"), want...)) {
			t.Errorf("appendJSONString([]byte(%q)) after a prefix = %s, want k:%s", s, got, want)
		}
	}
}

// applyRows commits one update that inserts n rows into a, so p changes
// by n rows and n (one group) by one row.
func applyRows(t testing.TB, v *ivm.Views, tag string, n int) *ivm.ChangeSet {
	t.Helper()
	u := ivm.NewUpdate()
	for i := 0; i < n; i++ {
		u.Insert("a", tag, fmt.Sprintf("%s_%d", tag, i))
	}
	cs, err := v.Apply(u)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestEncodeCommitAllocationsIndependentOfRows: a commit is encoded into
// pooled scratch and copied out at exact size, so ten rows and a
// thousand cost the same number of objects.
func TestEncodeCommitAllocationsIndependentOfRows(t *testing.T) {
	v := encodeViews(t)
	var allocs []float64
	for _, rows := range []int{10, 1000} {
		cs := applyRows(t, v, fmt.Sprintf("r%d", rows), rows)
		if c := encodeCommit(cs); c == nil || len(c.frags) != 2 || bytes.Count(c.line, []byte(`"tuple"`)) != rows+1 {
			t.Fatalf("a %d-row commit encoded to %d fragments", rows, len(c.frags))
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() { encodeCommit(cs) }))
	}
	if raceEnabled {
		t.Skipf("allocation counts of pooled scratch do not hold under -race (saw %v)", allocs)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("encoding 10 rows allocated %.0f objects, 1000 rows %.0f — must not depend on the row count", allocs[0], allocs[1])
	}
	if allocs[0] > 4 {
		t.Errorf("encoding a commit allocated %.0f objects, want at most 4 (commit, line, fragment list, encoder slack)", allocs[0])
	}
}

// TestCommitEncodedOnceForEveryConsumer: eight subscribers of one version
// are served one encoding — counted here as the distinct commits (and
// distinct line buffers) they were handed — and with no subscriber a
// commit is not encoded at all.
func TestCommitEncodedOnceForEveryConsumer(t *testing.T) {
	v := encodeViews(t)
	reg := metrics.NewRegistry()
	h := NewHub(v, reg)
	applyRows(t, v, "unheard", 25)
	if n := reg.Snapshot().Counter("server_sub_events_total"); n != 0 {
		t.Fatalf("with no subscriber %d commits were encoded", n)
	}
	var subs []*Subscriber
	for i := 0; i < 8; i++ {
		subs = append(subs, h.Subscribe(nil, 4))
	}
	applyRows(t, v, "once", 25)
	encodings := make(map[*commit]bool)
	buffers := make(map[*byte]bool)
	for _, s := range subs {
		c := <-s.Events()
		encodings[c] = true
		buffers[&s.Line(c)[0]] = true
	}
	if len(encodings) != 1 || len(buffers) != 1 || reg.Snapshot().Counter("server_sub_events_total") != 1 {
		t.Fatalf("8 subscribers saw %d encodings in %d buffers, want 1 and 1", len(encodings), len(buffers))
	}
}

// TestHubFragmentEvents drives filtered delivery, eviction, resume after
// eviction and resync at the hub, against fragment events.
func TestHubFragmentEvents(t *testing.T) {
	v := encodeViews(t, ivm.WithHistory(32))
	reg := metrics.NewRegistry()
	h := NewHub(v, reg)
	onlyQ := h.Subscribe([]string{"q"}, 64)
	pAndN := h.Subscribe([]string{"p", "n"}, 64)
	slow := h.Subscribe([]string{"p"}, 1)

	var versions []uint64
	for i := 0; i < 6; i++ {
		u := ivm.NewUpdate().Insert("a", "k", fmt.Sprintf("v%d", i))
		if i%2 == 0 {
			u.Insert("b", fmt.Sprintf("w%d", i))
		}
		cs, err := v.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, cs.Version())
	}
	onlyQ.Close()
	pAndN.Close()

	// Filtered delivery: q changed in every other commit and its events
	// carry q alone; p and n changed in all six.
	var qSeen []uint64
	for c := range onlyQ.Events() {
		var ev client.Event
		if err := json.Unmarshal(onlyQ.Line(c), &ev); err != nil {
			t.Fatal(err)
		}
		if len(ev.Deltas) != 1 || ev.Deltas[0].Pred != "q" {
			t.Fatalf("q subscriber got %s", onlyQ.Line(c))
		}
		qSeen = append(qSeen, ev.Version)
	}
	if want := []uint64{versions[0], versions[2], versions[4]}; !reflect.DeepEqual(qSeen, want) {
		t.Fatalf("q subscriber saw versions %v, want %v", qSeen, want)
	}
	n := 0
	for c := range pAndN.Events() {
		var ev client.Event
		if err := json.Unmarshal(pAndN.Line(c), &ev); err != nil {
			t.Fatal(err)
		}
		if len(ev.Deltas) != 2 || ev.Deltas[0].Pred != "n" || ev.Deltas[1].Pred != "p" || ev.Version != versions[n] {
			t.Fatalf("p+n subscriber event %d: %s", n, pAndN.Line(c))
		}
		n++
	}
	if n != len(versions) {
		t.Fatalf("p+n subscriber saw %d events, want %d", n, len(versions))
	}

	// Eviction: the one-slot subscriber took the first event and was
	// dropped at the second.
	first, open := <-slow.Events()
	if !open || first.version != versions[0] {
		t.Fatalf("slow subscriber's buffered event: %v open=%v", first, open)
	}
	if _, open := <-slow.Events(); open || !slow.Evicted() {
		t.Fatalf("slow subscriber open=%v evicted=%v, want closed and evicted", open, slow.Evicted())
	}

	// Resume after the eviction: the backlog is the history's commits after
	// the last version seen, narrowed by the filter, as byte lines.
	resumed, backlog, resync := h.SubscribeFrom([]string{"q"}, 4, versions[0])
	if resumed == nil || resync {
		t.Fatalf("resume from %d: sub=%v resync=%v", versions[0], resumed, resync)
	}
	defer resumed.Close()
	var back []uint64
	for _, c := range backlog {
		if line := resumed.Line(c); !bytes.Contains(line, []byte(`"pred":"q"`)) || bytes.Contains(line, []byte(`"pred":"p"`)) {
			t.Fatalf("resume backlog line not narrowed to q: %s", line)
		}
		back = append(back, c.version)
	}
	if want := []uint64{versions[2], versions[4]}; !reflect.DeepEqual(back, want) {
		t.Fatalf("resume backlog versions %v, want %v", back, want)
	}

	// Resync: push the resume point out of the 32-commit history.
	for i := 0; i < 32; i++ {
		applyRows(t, v, fmt.Sprintf("age%d", i), 1)
	}
	if sub, _, resync := h.SubscribeFrom(nil, 4, versions[0]); sub != nil || !resync {
		t.Fatalf("resume from an aged-out version: sub=%v resync=%v, want a resync", sub, resync)
	}
	snap := reg.Snapshot()
	if snap.Counter("server_sub_evicted_total") != 1 || snap.Counter("server_sub_resumes_total") != 1 || snap.Counter("server_sub_resyncs_total") != 1 {
		t.Fatalf("evicted=%d resumes=%d resyncs=%d, want 1 each", snap.Counter("server_sub_evicted_total"),
			snap.Counter("server_sub_resumes_total"), snap.Counter("server_sub_resyncs_total"))
	}
}

// TestHubRingBoundedByBytes: a resume reaches back as far as the views'
// history holds ChangeSets — n commits, within n × 512 B of records,
// traces and ChangeSets (history_bytes), the newest whatever its size —
// so large commits are shed before there are n of them, and a resume
// into a shed one gets the resync answer.
func TestHubRingBoundedByBytes(t *testing.T) {
	v := encodeViews(t, ivm.WithHistory(8)) // 8 commits, 4 KiB
	h := NewHub(v, metrics.NewRegistry())
	var commits []*ivm.ChangeSet
	for i := 0; i < 6; i++ {
		commits = append(commits, applyRows(t, v, fmt.Sprintf("mid%d", i), 6))
	}
	newest := commits[len(commits)-1]
	if held := v.Metrics().Gauge("history_bytes"); held <= 0 || held > 8*512 {
		t.Fatalf("history_bytes = %d after six 6-row commits, want them within 4 KiB", held)
	}
	if sub, _, resync := h.SubscribeFrom(nil, 4, commits[0].Version()); sub != nil || !resync {
		t.Fatalf("resume into commits shed for their bytes: sub=%v resync=%v, want a resync", sub, resync)
	}
	sub, backlog, resync := h.SubscribeFrom(nil, 4, newest.Version()-1)
	if sub == nil || resync || len(backlog) != 1 || backlog[0].version != newest.Version() {
		t.Fatalf("resume from the version before the newest: sub=%v resync=%v backlog=%v", sub, resync, backlog)
	}
	sub.Close()

	// One commit over the whole budget stays, alone.
	huge := applyRows(t, v, "huge", 400)
	if held := v.Metrics().Gauge("history_bytes"); held <= 8*512 {
		t.Fatalf("history_bytes = %d after a 400-row commit", held)
	}
	if sub, _, resync := h.SubscribeFrom(nil, 4, newest.Version()-1); sub != nil || !resync {
		t.Fatalf("resume across the oversized commit's sheds: sub=%v resync=%v, want a resync", sub, resync)
	}
	sub, backlog, resync = h.SubscribeFrom([]string{"p"}, 4, huge.Version()-1)
	if sub == nil || resync || len(backlog) != 1 || bytes.Count(sub.Line(backlog[0]), []byte(`"tuple"`)) != 400 {
		t.Fatalf("resume from the version before the huge commit: sub=%v resync=%v backlog=%v", sub, resync, backlog)
	}
	sub.Close()
}

// TestAckIsTheEventOnTheWire: over HTTP, an apply's ack is its version,
// and a subscription resumed after the version before it opens with the
// very line a live subscriber was sent for that version.
func TestAckIsTheEventOnTheWire(t *testing.T) {
	_, srv := startReplServer(t, Options{})
	resp, err := http.Get(srv.URL() + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream := bufio.NewReader(resp.Body)
	if hello, err := stream.ReadBytes('\n'); err != nil || !bytes.Contains(hello, []byte(`"hello":true`)) {
		t.Fatalf("hello line %q: %v", hello, err)
	}
	post, err := http.Post(srv.URL()+"/v1/apply", "text/plain", strings.NewReader("+link(c,d). +link(d,e). -link(a,b)."))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := io.ReadAll(post.Body)
	post.Body.Close()
	if err != nil || post.StatusCode != http.StatusOK {
		t.Fatalf("apply: status %d err %v body %s", post.StatusCode, err, ack)
	}
	var res client.ApplyResult
	if err := json.Unmarshal(ack, &res); err != nil || !bytes.Equal(ack, ackLine(res.Version, false)) {
		t.Fatalf("ack %s decodes to %+v (%v), want the version alone", ack, res, err)
	}
	live, err := stream.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	ev, resumed := eventAt(t, srv.URL(), res.Version)
	if !bytes.Equal(resumed, live) {
		t.Fatalf("live and resumed events of one version differ:\n live    %s resumed %s", live, resumed)
	}
	if len(ev.Deltas) != 1 || len(ev.Deltas[0].Inserted) == 0 || len(ev.Deltas[0].Deleted) == 0 {
		t.Fatalf("version %d's event %s decodes to %+v", res.Version, resumed, ev)
	}
}

// benchCommit keeps the benchmarked encodings observable.
var benchCommit *commit

func BenchmarkEncodeCommit(b *testing.B) {
	for _, rows := range []int{32, 512} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			cs := applyRows(b, encodeViews(b), "bench", rows)
			c := encodeCommit(cs)
			b.ReportAllocs()
			b.SetBytes(int64(len(c.line)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCommit = encodeCommit(cs)
			}
		})
	}
}

// BenchmarkHubPublish is one commit through Hub.publish — encode and
// fan-out — with nobody listening and with eight subscribers, each
// drained (and its line taken) inside the loop so none is ever evicted.
func BenchmarkHubPublish(b *testing.B) {
	for _, nsubs := range []int{0, 8} {
		b.Run(fmt.Sprintf("subs=%d", nsubs), func(b *testing.B) {
			v := encodeViews(b)
			h := NewHub(v, metrics.NewRegistry())
			defer h.CloseAll()
			var subs []*Subscriber
			for i := 0; i < nsubs; i++ {
				subs = append(subs, h.Subscribe(nil, 4))
			}
			cs := applyRows(b, v, "bench", 64)
			for _, s := range subs {
				<-s.Events() // the commit the apply itself published
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.publish(cs)
				for _, s := range subs {
					s.Line(<-s.Events())
				}
			}
		})
	}
}
