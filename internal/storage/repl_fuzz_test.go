package storage

// Fuzz target for the replication record decoder. Followers hand
// ReadReplRecord raw network bytes, so the decoder must never panic,
// never allocate past the payload bound, and must stay stable under
// re-encoding: whatever records it extracts, re-encoding and decoding
// again must yield the same records. The seed corpus covers 'D' records
// (whose payload is the WAL's commit record, verbatim), state and
// heartbeat records, torn tails, in-place damage, and 'D' and 'S'
// payloads in retired framings.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// encodeReplRecords renders records exactly as the primary streams them.
func encodeReplRecords(t testing.TB, records []ReplRecord) []byte {
	var buf []byte
	var err error
	for _, rec := range records {
		buf, err = AppendReplRecord(buf, rec)
		if err != nil {
			t.Fatalf("AppendReplRecord(%+v): %v", rec, err)
		}
	}
	return buf
}

// replFuzzSeeds is the seed corpus, mirrored under testdata/fuzz.
func replFuzzSeeds(t testing.TB) [][]byte {
	// A well-formed stream whose 'D' records are keyless, keyed, and
	// script-less.
	valid := encodeReplRecords(t, []ReplRecord{
		{Kind: ReplKindDelta, Epoch: 1, UnixNano: 111, CommitRecord: CommitRecord{Version: 1, Script: "+link(a,b)."}},
		{Kind: ReplKindDelta, Epoch: 1, UnixNano: 222, CommitRecord: CommitRecord{Version: 2, Script: "-link(a,b) * 2.", Keys: []string{"k1", "k2"}}},
		{Kind: ReplKindDelta, Epoch: 2, CommitRecord: CommitRecord{Version: 3, Keys: []string{"only-keys"}}},
		{Kind: ReplKindState, Epoch: 2, CommitRecord: CommitRecord{Version: 42}, State: stateRecord(t)},
		{Kind: ReplKindHeartbeat, Epoch: 3, UnixNano: 333, CommitRecord: CommitRecord{Version: 4}},
	})
	corrupt := append([]byte(nil), valid...)
	corrupt[replHeaderSize] ^= 0xff // flip a payload byte of record 1
	seeds := [][]byte{
		valid,
		valid[:len(valid)-3], // torn final record
		valid[:replHeaderSize-1],
		corrupt,
		rawReplRecord(ReplKindDelta, 2, retiredPayloads["V over K"]),
		{},
		bytes.Repeat([]byte{0xff}, replHeaderSize+4), // absurd header
		// A 'D' record carrying deltas, then its damaged delta sections.
		rawReplRecord(ReplKindDelta, 7, deltaRecord(t).Payload),
	}
	for _, name := range sortedKeys(malformedDeltaPayloads(t)) {
		seeds = append(seeds, rawReplRecord(ReplKindDelta, 7, malformedDeltaPayloads(t)[name]))
	}
	// A 'D' record shipping a rule edit, then its damaged program sections
	// (seed-16 on).
	seeds = append(seeds, rawReplRecord(ReplKindDelta, 9, editRecord(t).Payload))
	for _, name := range sortedKeys(malformedEditPayloads(t)) {
		seeds = append(seeds, rawReplRecord(ReplKindDelta, 9, malformedEditPayloads(t)[name]))
	}
	// An 'S' record in the layout of earlier builds, then damaged state
	// records (seed-21 on, in name order).
	seeds = append(seeds, rawReplRecord(ReplKindState, 4, []byte(`{"program":"p(X) :- q(X).","facts":"+q(1).\n"}`)))
	for _, name := range sortedKeys(malformedStatePayloads(t)) {
		seeds = append(seeds, rawReplRecord(ReplKindState, 42, malformedStatePayloads(t)[name]))
	}
	return seeds
}

// stateRecord is sampleState as a state record.
func stateRecord(t testing.TB) []byte {
	b, err := sampleState().AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// malformedStatePayloads damages a state record past its fixed header.
func malformedStatePayloads(t testing.TB) map[string][]byte {
	good := stateRecord(t)
	hop := bytes.Index(good, []byte("hop\x00\x03")) // name | arity u16 | nrows u32 | count | key
	patch := func(off int, b ...byte) []byte {
		p := append([]byte(nil), good...)
		copy(p[off:], b)
		return p
	}
	return map[string][]byte{
		"truncated rows":                 good[:len(good)-3],
		"program longer than the record": patch(stateFixed, 0x7f, 0xff, 0xff, 0xff),
		"hidden names past the end":      patch(bytes.Index(good, []byte("aux_1"))-4, 0xff, 0xff, 0xff, 0xff),
		"nrows larger than the bytes":    patch(hop+5, 0xff, 0xff, 0xff, 0xff),
		"negative stored count":          patch(hop+9, 0x03),
		"a relation listed twice":        append(good, good[hop-2:bytes.Index(good, []byte("link\x00\x02"))-2]...),
	}
}

func FuzzReplRecord(f *testing.F) {
	for _, seed := range replFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := DecodeReplRecords(data)
		if err != nil {
			return // damage detected; nothing else to assert
		}
		// A follower folds what it is sent: a shipped rule edit's program
		// fills its frame, and walking a shipped delta section must end in
		// rows or in a malformed-record error.
		for _, rec := range records {
			if rec.Kind == ReplKindState {
				// A follower loads what it is sent: a shipped state decodes
				// to relations or to a malformed-record error, and what it
				// decodes to is what it re-encodes as.
				st, err := DecodeState(rec.State)
				if err != nil {
					if !errors.Is(err, errMalformedRecord) {
						t.Fatalf("state %x refused with an untyped error: %v", rec.State, err)
					}
					continue
				}
				b, err := st.AppendTo(nil)
				if err != nil {
					t.Fatalf("decoded state %x does not re-encode: %v", rec.State, err)
				}
				again, err := DecodeState(b)
				if err != nil {
					t.Fatalf("re-encoded state %x: %v", b, err)
				}
				requireSameState(t, st, again)
			}
			if rec.HasDeltas() {
				if _, err := readProgram(rec.CommitRecord); err != nil {
					t.Fatalf("shipped record %x: %v", rec.Payload, err)
				}
				if _, err := readDeltas(rec.CommitRecord); err != nil && !errors.Is(err, errMalformedRecord) {
					t.Fatalf("delta walk of %x stopped with an untyped error: %v", rec.Payload, err)
				}
			}
		}
		// Decode/encode stability: the extracted records survive a round
		// trip through the canonical encoding.
		again, err := DecodeReplRecords(encodeReplRecords(t, records))
		if err != nil {
			t.Fatalf("re-decode of re-encoded records failed: %v", err)
		}
		if len(again) != len(records) {
			t.Fatalf("round trip changed record count: %d != %d", len(again), len(records))
		}
		if !reflect.DeepEqual(records, again) {
			t.Fatalf("records changed in round trip:\n got %+v\nwant %+v", again, records)
		}
	})
}

// DecodeReplRecords decodes a byte buffer as a sequence of replication
// records, as a follower reads its stream. A clean EOF at a record
// boundary ends the scan without error.
func DecodeReplRecords(data []byte) ([]ReplRecord, error) {
	r := bufio.NewReader(bytes.NewReader(data))
	var out []ReplRecord
	for {
		rec, err := ReadReplRecord(r)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
