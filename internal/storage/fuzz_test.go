package storage

// Fuzz target for the log crash recovery actually reads: the one WAL
// scan loop (recoverWAL and TailRecords both run it) plus the one commit
// record decoder. Recovery hands scanWAL raw file bytes that may have
// been torn by a crash, corrupted in place, or written by another build,
// so the scan must never panic, must tell those three apart by typed
// error, and must be canonical: the records it accepts re-encode to
// exactly the bytes it accepted. A record that carries deltas is also
// walked the way a fold walks it: a rule edit's program fills its frame,
// every row it yields is one whole key of the section's arity, and
// anything else is a malformed record.

import (
	"bytes"
	"errors"
	"sort"
	"testing"
)

// walFuzzSeeds is the seed corpus, mirrored under testdata/fuzz:
// well-formed logs of script and delta records, torn tails, in-place
// damage, records an earlier build wrote, and malformed records of this
// one (seed-10 on: a delta record, then its damaged delta sections in
// name order; seed-18 on: a rule edit's record, then its damaged program
// sections in name order).
func walFuzzSeeds(t testing.TB) [][]byte {
	var valid []byte
	for i, rec := range []CommitRecord{
		{Version: 2, Script: "+link(a,b)."},
		{Version: 3, Script: "-link(a,b) * 2.", Keys: []string{"k1", "k2"}},
		{Version: 4, Keys: []string{"only-keys"}},
	} {
		frame, err := encodeWALRecord(1, uint64(i+1), rec)
		if err != nil {
			t.Fatal(err)
		}
		valid = append(valid, frame...)
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[walHeaderSize+commitRecordFixed] ^= 0xff // flip a script byte of record 1
	seeds := [][]byte{
		valid,
		valid[:len(valid)-3], // torn final record
		valid[:5],            // torn first header
		corrupt,
		append(append([]byte(nil), valid...), rawWALRecord(1, 9, retiredPayloads["bare script"])...),
		append(append([]byte(nil), valid...), rawWALRecord(1, 9, retiredPayloads["V over K"])...),
		rawWALRecord(1, 1, []byte{formatScript, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 9, 'a'}), // truncated key
		{},
		bytes.Repeat([]byte{0xff}, walHeaderSize+4), // absurd length header
		append(append([]byte(nil), valid...), rawWALRecord(1, 4, deltaRecord(t).Payload)...),
	}
	for _, name := range sortedKeys(malformedDeltaPayloads(t)) {
		seeds = append(seeds, rawWALRecord(1, 1, malformedDeltaPayloads(t)[name]))
	}
	seeds = append(seeds, append(append([]byte(nil), valid...), rawWALRecord(1, 4, editRecord(t).Payload)...))
	for _, name := range sortedKeys(malformedEditPayloads(t)) {
		seeds = append(seeds, rawWALRecord(1, 1, malformedEditPayloads(t)[name]))
	}
	return seeds
}

func sortedKeys(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func FuzzScanWAL(f *testing.F) {
	for _, seed := range walFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var again []byte
		end, err := scanWAL(data, func(_ int64, epoch, seq uint64, payload []byte) error {
			rec, err := DecodeCommitRecord(payload)
			if err != nil {
				return err
			}
			if rec.HasDeltas() {
				if _, err := readProgram(rec); err != nil {
					t.Fatalf("accepted record %x: %v", payload, err)
				}
				if _, err := readDeltas(rec); err != nil {
					return err
				}
			}
			frame, err := encodeWALRecord(epoch, seq, rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
			}
			again = append(again, frame...)
			return nil
		})
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("scan ended at %d of %d bytes", end, len(data))
		}
		if !bytes.Equal(again, data[:end]) {
			t.Fatalf("accepted records re-encode to different bytes:\n got %x\nwant %x", again, data[:end])
		}
		var corruptErr *CorruptWALError
		var unknown *UnknownFormatError
		switch {
		case err == nil:
			if end != int64(len(data)) {
				t.Fatalf("clean scan stopped at %d of %d bytes", end, len(data))
			}
		case errors.Is(err, ErrTornWAL):
			// Nothing follows a torn tail, so trimming at end loses no
			// acknowledged record.
		case errors.As(err, &corruptErr):
			if corruptErr.Offset != end || end+walHeaderSize >= int64(len(data)) {
				t.Fatalf("corruption reported at %d, scan ended at %d of %d bytes", corruptErr.Offset, end, len(data))
			}
		case errors.As(err, &unknown), errors.Is(err, errMalformedRecord):
			// A checksum-valid record this build cannot read.
		default:
			t.Fatalf("scan stopped with an untyped error: %v", err)
		}
	})
}
