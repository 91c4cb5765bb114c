package storage

// The commit record and the WAL framing around it. A commit is framed
// once: the payload AppendTo renders is what the WAL stores, what a
// replication 'D' record ships verbatim, and what recovery, WAL backfill
// and a follower decode with DecodeCommitRecord.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C table shared by the WAL, the replication
// stream and the snapshot footer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CommitRecord is one committed maintenance pass: the snapshot version
// it published, the idempotency keys of the Apply calls it covers (a
// coalesced batch carries every caller's key), and the delta script that
// reproduces it. The views after n commits are a fold of n records over
// a starting state, so crash recovery, WAL backfill and a follower's
// tail all replay this one type.
type CommitRecord struct {
	Version uint64
	Keys    []string
	Script  string
}

// commitRecordFormat leads every payload:
//
//	[format u8 = 1][version u64][nkeys u16]([klen u16][key])*[script]
//
// (numbers big-endian). Delta scripts are text and the retired framings
// opened with 0x00, so no payload an earlier build wrote starts with it.
const commitRecordFormat = 1

// commitRecordFixed is the payload size before keys and script.
const commitRecordFixed = 1 + 8 + 2

// UnknownFormatError reports an intact WAL record, replication payload
// or snapshot in a layout this build does not read — written by an
// incompatible build. Nothing is repaired or set aside: the file is left
// exactly as found and there is no migration path.
type UnknownFormatError struct {
	What   string // "WAL" or "snapshot"
	Format int    // the format byte / version number found
}

func (e *UnknownFormatError) Error() string {
	return fmt.Sprintf("storage: unknown %s format %d: written by an incompatible build; this build reads only its own layout and does not migrate",
		e.What, e.Format)
}

// errMalformedRecord marks a payload that names the current format but
// does not parse: its checksum held, so this is a writer bug, not disk
// damage, and it is surfaced loudly rather than repaired around.
var errMalformedRecord = errors.New("storage: malformed commit record")

// AppendTo appends the record's payload to dst.
func (r CommitRecord) AppendTo(dst []byte) ([]byte, error) {
	if len(r.Keys) > 0xffff {
		return nil, fmt.Errorf("storage: %d idempotency keys in one record (max %d)", len(r.Keys), 0xffff)
	}
	dst = append(dst, commitRecordFormat)
	dst = binary.BigEndian.AppendUint64(dst, r.Version)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Keys)))
	for _, k := range r.Keys {
		if len(k) > 0xffff {
			return nil, fmt.Errorf("storage: idempotency key of %d bytes (max %d)", len(k), 0xffff)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	return append(dst, r.Script...), nil
}

// encodedLen is the exact size AppendTo adds.
func (r CommitRecord) encodedLen() int {
	n := commitRecordFixed + len(r.Script)
	for _, k := range r.Keys {
		n += 2 + len(k)
	}
	return n
}

// DecodeCommitRecord parses a payload AppendTo rendered. Any other
// leading byte — the retired bare-script and 0x00-framed payloads
// included — is an *UnknownFormatError.
func DecodeCommitRecord(payload []byte) (CommitRecord, error) {
	if len(payload) == 0 || payload[0] != commitRecordFormat {
		format := -1 // empty payload: the retired bare framing of an empty script
		if len(payload) > 0 {
			format = int(payload[0])
		}
		return CommitRecord{}, &UnknownFormatError{What: "WAL", Format: format}
	}
	if len(payload) < commitRecordFixed {
		return CommitRecord{}, fmt.Errorf("%w: %d-byte payload is shorter than the fixed header", errMalformedRecord, len(payload))
	}
	rec := CommitRecord{Version: binary.BigEndian.Uint64(payload[1:9])}
	nkeys := int(binary.BigEndian.Uint16(payload[9:11]))
	off := commitRecordFixed
	if nkeys > 0 {
		rec.Keys = make([]string, 0, nkeys)
	}
	for i := 0; i < nkeys; i++ {
		if len(payload)-off < 2 {
			return CommitRecord{}, fmt.Errorf("%w: truncated in key %d length", errMalformedRecord, i)
		}
		kl := int(binary.BigEndian.Uint16(payload[off : off+2]))
		off += 2
		if len(payload)-off < kl {
			return CommitRecord{}, fmt.Errorf("%w: truncated in key %d", errMalformedRecord, i)
		}
		rec.Keys = append(rec.Keys, string(payload[off:off+kl]))
		off += kl
	}
	rec.Script = string(payload[off:])
	return rec, nil
}

// walHeaderSize is the fixed WAL record header: epoch u64, seq u64,
// len u32, crc32c u32 (all big-endian). The checksum covers the first 20
// header bytes plus the payload.
const walHeaderSize = 24

// encodeWALRecord frames rec for the WAL: header, then the commit
// record payload, rendered straight into one buffer.
func encodeWALRecord(epoch, seq uint64, rec CommitRecord) ([]byte, error) {
	buf := make([]byte, walHeaderSize, walHeaderSize+rec.encodedLen())
	buf, err := rec.AppendTo(buf)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(buf[0:8], epoch)
	binary.BigEndian.PutUint64(buf[8:16], seq)
	binary.BigEndian.PutUint32(buf[16:20], uint32(len(buf)-walHeaderSize))
	crc := crc32.Checksum(buf[0:20], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf[walHeaderSize:])
	binary.BigEndian.PutUint32(buf[20:24], crc)
	return buf, nil
}

// ErrTornWAL ends a scan at an incomplete or checksum-failing final
// record: a crash cut the append short and it was never acknowledged.
var ErrTornWAL = errors.New("storage: torn wal tail")

// CorruptWALError reports a WAL record damaged in place: its checksum
// fails even though further bytes follow, so the damage cannot be a torn
// tail. Recovery refuses to proceed past it (the records behind it were
// acknowledged) unless StoreOptions.RepairCorruptWAL opts in to
// discarding the suffix.
type CorruptWALError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptWALError) Error() string {
	return fmt.Sprintf("storage: corrupt wal record in %s at offset %d: %s (acknowledged records follow the damage; re-open with RepairCorruptWAL to keep the valid prefix and discard the rest)",
		e.Path, e.Offset, e.Reason)
}

// scanWAL is the one walk over a WAL image: every checksum-valid record
// is handed to fn in file order, and the scan stops at the first record
// it cannot accept. end is the offset just past the last accepted
// record; err says why the scan stopped short of len(data) — ErrTornWAL,
// a *CorruptWALError, or whatever fn returned (a decode failure such as
// *UnknownFormatError). Record lengths are bounded by the bytes present,
// so a garbage header cannot force an allocation. What to do about a
// stop is the caller's policy: recovery trims a torn tail, backfill
// refuses to serve across one.
func scanWAL(data []byte, fn func(offset int64, epoch, seq uint64, payload []byte) error) (end int64, err error) {
	for rest := data; len(rest) > 0; rest = data[end:] {
		if len(rest) < walHeaderSize {
			return end, ErrTornWAL
		}
		n := int64(binary.BigEndian.Uint32(rest[16:20]))
		if n > int64(len(rest)-walHeaderSize) {
			return end, ErrTornWAL // record extends past EOF: a crashed append
		}
		payload := rest[walHeaderSize : walHeaderSize+n]
		want := binary.BigEndian.Uint32(rest[20:24])
		crc := crc32.Checksum(rest[0:20], castagnoli)
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != want {
			if walHeaderSize+n == int64(len(rest)) {
				return end, ErrTornWAL // final record: indistinguishable from a torn append
			}
			return end, &CorruptWALError{Offset: end, Reason: fmt.Sprintf("crc mismatch (stored %08x, computed %08x)", want, crc)}
		}
		if err := fn(end, binary.BigEndian.Uint64(rest[0:8]), binary.BigEndian.Uint64(rest[8:16]), payload); err != nil {
			return end, err
		}
		end += walHeaderSize + n
	}
	return end, nil
}
