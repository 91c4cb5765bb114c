package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
)

// rawReplRecord frames an arbitrary payload as a checksum-valid
// replication record, spelling the header layout out independently of
// the encoder.
func rawReplRecord(kind byte, version uint64, payload []byte) []byte {
	rec := make([]byte, replHeaderSize, replHeaderSize+len(payload))
	rec[0] = kind
	binary.BigEndian.PutUint64(rec[9:17], version)
	binary.BigEndian.PutUint32(rec[25:29], uint32(len(payload)))
	rec = append(rec, payload...)
	crc := crc32.Checksum(rec[:29], castagnoli)
	binary.BigEndian.PutUint32(rec[29:33], crc32.Update(crc, castagnoli, payload))
	return rec
}

func TestReplRecordRoundTrip(t *testing.T) {
	want := sampleState()
	want.Version = 4
	state, err := want.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	records := []ReplRecord{
		{Kind: ReplKindDelta, Epoch: 1, UnixNano: 123, CommitRecord: CommitRecord{Version: 1, Script: "+q(1)."}},
		{Kind: ReplKindDelta, Epoch: 1, UnixNano: 456, CommitRecord: CommitRecord{Version: 2, Keys: []string{"k1", "k2"}}},
		{Kind: ReplKindDelta, Epoch: 2, CommitRecord: CommitRecord{Version: 3, Script: "+q(2). -q(1).", Keys: []string{"a"}}},
		{Kind: ReplKindState, Epoch: 3, UnixNano: 789, CommitRecord: CommitRecord{Version: 4}, State: state},
		{Kind: ReplKindHeartbeat, Epoch: 1<<63 + 7, UnixNano: 999, CommitRecord: CommitRecord{Version: 4}},
	}
	var buf []byte
	for _, rec := range records {
		buf, err = AppendReplRecord(buf, rec)
		if err != nil {
			t.Fatalf("AppendReplRecord(%+v): %v", rec, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range records {
		got, err := ReadReplRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want.State == nil {
			want.State = []byte{} // an empty payload reads back empty, not nil
		}
		if want.Kind != ReplKindState {
			got.State = want.State
		}
		got.Payload = nil // a decoded 'D' record keeps the bytes it came as
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadReplRecord(r); err != io.EOF {
		t.Fatalf("want clean io.EOF at stream end, got %v", err)
	}

	st, err := DecodeState(state)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	requireSameState(t, want, st)
}

func TestReplRecordRejectsDamage(t *testing.T) {
	rec := ReplRecord{Kind: ReplKindDelta, UnixNano: 1, CommitRecord: CommitRecord{Version: 7, Script: "+p(1).", Keys: []string{"k"}}}
	buf, err := AppendReplRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}

	read := func(data []byte) error {
		_, err := ReadReplRecord(bufio.NewReader(bytes.NewReader(data)))
		return err
	}

	// Truncation anywhere inside a record is io.ErrUnexpectedEOF, never
	// a clean EOF and never a panic.
	for cut := 1; cut < len(buf); cut++ {
		if err := read(buf[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
	// A flipped bit anywhere fails the checksum (or the kind check).
	for i := range buf {
		mangled := append([]byte(nil), buf...)
		mangled[i] ^= 0x01
		if err := read(mangled); err == nil {
			t.Fatalf("flip at %d: damage accepted", i)
		}
	}
	// A 'D' record ships its commit record's own version in the header;
	// a stream whose two copies disagree is damaged, checksum or not.
	lying, err := AppendReplRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	lying[replHeaderSize+8]++ // last byte of the payload's version
	crc := crc32.Checksum(lying[:29], castagnoli)
	binary.BigEndian.PutUint32(lying[29:33], crc32.Update(crc, castagnoli, lying[replHeaderSize:]))
	if err := read(lying); err == nil || !strings.Contains(err.Error(), "header names version 7") {
		t.Fatalf("header/payload version disagreement: %v", err)
	}
	// A payload in a retired framing is another build's, not damage.
	foreign := rawReplRecord(ReplKindDelta, 7, retiredPayloads["V over K"])
	var unknown *UnknownFormatError
	if err := read(foreign); !errors.As(err, &unknown) {
		t.Fatalf("retired 'D' payload: %v, want *UnknownFormatError", err)
	}
	// So is a state record in another layout — the JSON 'S' payload of
	// earlier builds — and one whose version is not the header's.
	if err := read(rawReplRecord(ReplKindState, 4, []byte(`{"program":"p."}`))); !errors.As(err, &unknown) {
		t.Fatalf("JSON 'S' payload: %v, want *UnknownFormatError", err)
	}
	state, err := sampleState().AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := read(rawReplRecord(ReplKindState, 41, state)); err == nil || !strings.Contains(err.Error(), "header names version 41") {
		t.Fatalf("header/state version disagreement: %v", err)
	}
	// An unknown kind byte is rejected outright.
	if _, err := AppendReplRecord(nil, ReplRecord{Kind: 'Z'}); err == nil {
		t.Fatal("AppendReplRecord accepted unknown kind")
	}
}

func TestReplRecordPayloadBound(t *testing.T) {
	// A header promising more than maxReplPayload is rejected before any
	// allocation.
	buf, err := AppendReplRecord(nil, ReplRecord{Kind: ReplKindState, CommitRecord: CommitRecord{Version: 1}, State: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	buf[25], buf[26], buf[27], buf[28] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadReplRecord(bufio.NewReader(bytes.NewReader(buf))); err == nil {
		t.Fatal("absurd length header accepted")
	}
}
