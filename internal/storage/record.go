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
	"io"
	"math"
	"sort"
	"sync"

	"ivm/internal/relation"
	"ivm/internal/value"
)

// castagnoli is the CRC32C table shared by the WAL, the replication
// stream and the snapshot footer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CommitRecord is one committed maintenance pass: the snapshot version
// it published, the idempotency keys of the Apply it commits (a record
// an older build merged from several applies carries every caller's),
// and what reproduces it —
// the signed per-predicate deltas the engine committed (format 2; format
// 3, a rule edit's, also carries the edited program) or, in a record from
// before those were shipped, the delta script to re-derive them from
// (format 1). The views after n commits are a fold of n records over a
// starting state, x ⊎ Δ₁ ⊎ … ⊎ Δₙ, so crash recovery, WAL backfill and a
// follower's tail all replay this one type.
type CommitRecord struct {
	Version uint64
	Keys    []string
	// Script is a format-1 record's delta script; only
	// Store.AppendVersionedAsync still writes one.
	Script string
	// Payload is the record as encoded — what the WAL stores and a 'D'
	// frame ships — so appending and re-shipping it copy bytes instead of
	// rendering again. EncodeCommitRecord and DecodeCommitRecord set it
	// (the decoder aliases its argument); a record built by hand has none
	// and renders as format 1.
	Payload []byte
	deltas  int // where Payload's delta section starts; 0 unless format 2 or 3
	program int // where Payload's program text starts; 0 unless format 3
}

// Every payload opens [format u8][version u64][nkeys u16]([klen u16][key])*
// (numbers big-endian). Format 1 ends with the delta script as text;
// format 2 with an engine byte and one section per changed predicate,
// base and derived alike, in name order:
//
//	[engine u8]([nlen u16][name][arity u16][nrows u32]([count varint][tuple key])*)*
//
// Format 3 is a rule edit: format 2 with the edited program's text before
// the engine byte, [plen u32][program], so a build that reads only format
// 2 refuses it instead of folding the Δ without the program.
//
// engine names the configuration that cut the record — stored counts, and
// so count changes, are particular to it (see Engine). count is the
// signed change of the row's derivation count, never 0; the
// key is Tuple.AppendKey's encoding — the string the row is stored under
// on both ends, self-delimiting given the arity — so encoding copies it
// and decoding looks it up without keying anything. Delta scripts are
// text and the retired framings opened with 0x00, so no payload an
// earlier build wrote starts with any of the three bytes.
const (
	formatScript = 1
	formatDeltas = 2
	formatEdit   = 3
)

// commitRecordFixed is the payload size before keys and body.
const commitRecordFixed = 1 + 8 + 2

// UnknownFormatError reports an intact WAL record, replication payload
// or snapshot in a layout this build does not read — written by an
// incompatible build. Nothing is repaired or set aside: the file is left
// exactly as found and there is no migration path.
type UnknownFormatError struct {
	What   string // "WAL", "snapshot", "replication state" or "state record"
	Format int    // the format byte / version number found
}

func (e *UnknownFormatError) Error() string {
	return fmt.Sprintf("storage: unknown %s format %d: written by an incompatible build; this build reads only its own layout and does not migrate",
		e.What, e.Format)
}

// errMalformedRecord marks a payload that names a current format but
// does not parse: its checksum held, so this is a writer bug, not disk
// damage, and it is surfaced loudly rather than repaired around.
var errMalformedRecord = errors.New("storage: malformed commit record")

// appendHeader appends the part of a payload both formats share.
func appendHeader(dst []byte, format byte, version uint64, keys []string) ([]byte, error) {
	if len(keys) > 0xffff {
		return nil, fmt.Errorf("storage: %d idempotency keys in one record (max %d)", len(keys), 0xffff)
	}
	dst = append(dst, format)
	dst = binary.BigEndian.AppendUint64(dst, version)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(keys)))
	for _, k := range keys {
		if len(k) > 0xffff {
			return nil, fmt.Errorf("storage: idempotency key of %d bytes (max %d)", len(k), 0xffff)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	return dst, nil
}

// recordScratch holds the buffers records are rendered in before being
// copied out at their exact size — up to MaxScratch: a bulk commit's
// buffer, pooled, would stay live while small commits reuse it.
var recordScratch = sync.Pool{New: func() any { return new([]byte) }}

// MaxScratch is the largest buffer a record is rendered in that is kept
// for the next record.
const MaxScratch = 64 << 10

// appendSection renders one predicate's section of a delta section (or of
// a state record): its name, arity and row count, then each row as its
// count and its tuple's key. A relation the fields cannot describe — a
// name or arity wider than 16 bits, an arity still unknown (negative),
// more than 2³²−1 rows — is refused.
func appendSection(buf []byte, pred string, d *relation.Relation) ([]byte, error) {
	if len(pred) > math.MaxUint16 || d.Arity() < 0 || d.Arity() > math.MaxUint16 || uint64(d.Len()) > math.MaxUint32 {
		return nil, fmt.Errorf("storage: %s (arity %d, %d rows) exceeds the record's field widths", pred, d.Arity(), d.Len())
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(pred)))
	buf = append(buf, pred...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(d.Arity()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(d.Len()))
	d.Each(func(row relation.Row) {
		buf = binary.AppendVarint(buf, row.Count)
		buf = append(buf, row.Key()...)
	})
	return buf, nil
}

// EncodeCommitRecord cuts the record of a commit from the deltas its
// engine committed (CommittedDeltas), stamped with that engine's
// configuration: one rendering, kept as the record's Payload at exactly
// its size. program is nil for an update (format 2) and, for a rule edit
// (format 3), the program text the edit left.
func EncodeCommitRecord(version uint64, keys []string, program *string, engine byte, deltas map[string]*relation.Relation) (CommitRecord, error) {
	preds := make([]string, 0, len(deltas))
	for pred := range deltas {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	scratch := recordScratch.Get().(*[]byte)
	buf, err := appendHeader((*scratch)[:0], formatDeltas, version, keys)
	defer func() {
		if cap(buf) <= MaxScratch {
			*scratch = buf
			recordScratch.Put(scratch)
		}
	}()
	if err != nil {
		return CommitRecord{}, err
	}
	rec := CommitRecord{Version: version, Keys: keys}
	if program != nil {
		if uint64(len(*program)) > math.MaxUint32 {
			return CommitRecord{}, fmt.Errorf("storage: a program of %d bytes exceeds the record's field width", len(*program))
		}
		buf[0] = formatEdit
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(*program)))
		rec.program = len(buf)
		buf = append(buf, *program...)
	}
	buf = append(buf, engine)
	rec.deltas = len(buf)
	for _, pred := range preds {
		if buf, err = appendSection(buf, pred, deltas[pred]); err != nil {
			return CommitRecord{}, err
		}
	}
	rec.Payload = make([]byte, len(buf))
	copy(rec.Payload, buf)
	return rec, nil
}

// AppendTo appends the record's payload to dst: the bytes it was cut or
// decoded as when it has them, else a format-1 rendering of its script.
func (r CommitRecord) AppendTo(dst []byte) ([]byte, error) {
	if r.Payload != nil {
		return append(dst, r.Payload...), nil
	}
	dst, err := appendHeader(dst, formatScript, r.Version, r.Keys)
	return append(dst, r.Script...), err
}

// encodedLen is the exact size AppendTo adds.
func (r CommitRecord) encodedLen() int {
	if r.Payload != nil {
		return len(r.Payload)
	}
	n := commitRecordFixed + len(r.Script)
	for _, k := range r.Keys {
		n += 2 + len(k)
	}
	return n
}

// DecodeCommitRecord parses a payload of any of the three formats. The
// record keeps payload; a delta section is read in place, later, by
// Deltas. Any other leading byte — the retired bare-script and
// 0x00-framed payloads included — is an *UnknownFormatError.
func DecodeCommitRecord(payload []byte) (CommitRecord, error) {
	if len(payload) == 0 || payload[0] < formatScript || payload[0] > formatEdit {
		format := -1 // empty payload: the retired bare framing of an empty script
		if len(payload) > 0 {
			format = int(payload[0])
		}
		return CommitRecord{}, &UnknownFormatError{What: "WAL", Format: format}
	}
	if len(payload) < commitRecordFixed {
		return CommitRecord{}, fmt.Errorf("%w: %d-byte payload is shorter than the fixed header", errMalformedRecord, len(payload))
	}
	rec := CommitRecord{Version: binary.BigEndian.Uint64(payload[1:9]), Payload: payload}
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
	if payload[0] == formatScript {
		rec.Script = string(payload[off:])
		return rec, nil
	}
	if payload[0] == formatEdit {
		if len(payload)-off < 4 || uint64(len(payload)-off-4) < uint64(binary.BigEndian.Uint32(payload[off:])) {
			return CommitRecord{}, fmt.Errorf("%w: truncated in the program", errMalformedRecord)
		}
		rec.program = off + 4
		off = rec.program + int(binary.BigEndian.Uint32(payload[off:]))
	}
	if off == len(payload) {
		return CommitRecord{}, fmt.Errorf("%w: truncated before the engine byte", errMalformedRecord)
	}
	rec.deltas = off + 1
	return rec, nil
}

// HasDeltas reports whether the record carries its committed deltas
// (format 2 or 3) and so replays as a fold, without a script.
func (r CommitRecord) HasDeltas() bool { return r.deltas > 0 }

// Program returns a rule edit's program text — the view program as the
// edit left it, to be installed before its deltas are folded — and
// whether the record is one (format 3).
func (r CommitRecord) Program() (src string, ok bool) {
	if r.program == 0 {
		return "", false
	}
	return string(r.Payload[r.program : r.deltas-1]), true
}

// Engine returns a format-2 or -3 record's engine byte: an opaque stamp of
// the strategy and semantics whose stored counts the deltas are changes
// of. Only views configured the same can fold the record.
func (r CommitRecord) Engine() byte { return r.Payload[r.deltas-1] }

// Deltas returns a reader over the record's delta section.
func (r CommitRecord) Deltas() *DeltaReader { return &DeltaReader{b: r.Payload[r.deltas:]} }

// DeltaReader walks a delta section in place: Next opens the next
// predicate's section, Row then reads its rows one at a time. Every
// length is checked against the bytes present before it is believed.
type DeltaReader struct {
	b     []byte
	arity int
}

// Next opens the next predicate section; io.EOF ends the record. nrows
// is at most the rows the remaining bytes could hold (a count byte and,
// per value, a kind byte, a digit and '|'), so it may size an allocation.
func (d *DeltaReader) Next() (pred string, arity, nrows int, err error) {
	if len(d.b) == 0 {
		return "", 0, 0, io.EOF
	}
	if len(d.b) < 2 || len(d.b)-2 < int(binary.BigEndian.Uint16(d.b))+6 {
		return "", 0, 0, fmt.Errorf("%w: truncated delta section header", errMalformedRecord)
	}
	n := 2 + int(binary.BigEndian.Uint16(d.b))
	pred, d.arity = string(d.b[2:n]), int(binary.BigEndian.Uint16(d.b[n:]))
	nrows = int(binary.BigEndian.Uint32(d.b[n+2:]))
	if d.b = d.b[n+6:]; nrows > len(d.b)/(1+3*d.arity) {
		return "", 0, 0, fmt.Errorf("%w: delta of %s claims %d rows, more than its %d bytes hold", errMalformedRecord, pred, nrows, len(d.b))
	}
	return pred, d.arity, nrows, nil
}

// Row reads the open section's next row: its signed count change and
// its tuple's canonical key (aliasing the payload).
func (d *DeltaReader) Row() (count int64, key []byte, err error) {
	count, n := binary.Varint(d.b)
	if n <= 0 || count == 0 {
		return 0, nil, fmt.Errorf("%w: bad delta row count", errMalformedRecord)
	}
	kl, err := value.KeyLen(d.b[n:], d.arity)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errMalformedRecord, err)
	}
	key, d.b = d.b[n:n+kl], d.b[n+kl:]
	return count, key, nil
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
