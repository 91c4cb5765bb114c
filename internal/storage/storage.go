// Package storage persists databases (relations with derivation counts)
// and view programs: checksummed gob snapshots for full state (this
// file), the commit record and its WAL framing (record.go), the managed
// checkpoint + write-ahead-log directory that pairs them (store.go), and
// the replication stream that ships the same records (repl.go).
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Platforms whose directory handles reject Sync (some network
// filesystems) report a benign error which callers may ignore; on a
// normal POSIX filesystem the sync is required for durability of the
// rename itself.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// scalar is the gob-encodable image of a value.Value. Gob sends no zero
// field, so -0.0 would arrive as 0.0: it has a kind of its own.
type scalar struct {
	Kind uint8
	I    int64
	F    float64
	S    string
}

func toScalar(v value.Value) scalar {
	switch v.Kind() {
	case value.Int:
		return scalar{Kind: 0, I: v.Int()}
	case value.Float:
		if f := v.Float(); f == 0 && math.Signbit(f) {
			return scalar{Kind: 3}
		}
		return scalar{Kind: 1, F: v.Float()}
	default:
		return scalar{Kind: 2, S: v.Str()}
	}
}

func (s scalar) value() (value.Value, error) {
	switch s.Kind {
	case 0:
		return value.NewInt(s.I), nil
	case 1:
		return value.NewFloat(s.F), nil
	case 2:
		return value.NewString(s.S), nil
	case 3:
		return value.NewFloat(math.Copysign(0, -1)), nil
	default:
		return value.Value{}, fmt.Errorf("storage: unknown scalar kind %d", s.Kind)
	}
}

// row is the gob-encodable image of one counted tuple.
type row struct {
	Tuple []scalar
	Count int64
}

// snapshot is the on-disk image of a database plus its view program.
type snapshot struct {
	Version   int
	Program   string
	Relations map[string][]row
	// Hidden lists internal auxiliary predicates that the front end
	// filters out of user-facing change sets — e.g. the helper predicates
	// SQL GROUP BY translation generates.
	Hidden []string
	// BaseVersion is the published snapshot version the saved state
	// corresponds to, so a restarted process — or a replica bootstrapping
	// from a checkpoint — resumes the version counter where the writer
	// left it.
	BaseVersion uint64
}

// snapshotVersion is the one snapshot layout this build reads and
// writes; any other Version is an *UnknownFormatError.
const snapshotVersion = 3

// snapFooterMagic opens the whole-file CRC32C footer
// (`magic | crc32c(body)`) that closes every snapshot. Gob decoding alone
// misses in-place corruption that still happens to parse — a flipped bit
// in a count, say — so a snapshot whose footer is missing, mangled or
// mismatched is damaged, whatever its body decodes to.
var snapFooterMagic = [4]byte{'I', 'V', 'S', '1'}

const snapFooterSize = 8

// crcWriter tees writes into a running CRC32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// SaveFile writes a snapshot of db (every relation, with counts), the
// program text, the hidden-predicate set and the base version to path,
// atomically and durably: the temp file is fsynced before the rename and
// the parent directory is fsynced after it, so a crash at any point
// leaves either the old snapshot or the complete new one — never a
// missing or empty file. The checksum footer covers the whole body.
func SaveFile(path string, db *eval.DB, program string, hidden []string, baseVersion uint64) error {
	snap := snapshot{
		Version:     snapshotVersion,
		Program:     program,
		Relations:   make(map[string][]row),
		Hidden:      append([]string(nil), hidden...),
		BaseVersion: baseVersion,
	}
	for _, pred := range db.Preds() {
		rel := db.Get(pred)
		rows := make([]row, 0, rel.Len())
		for _, r := range rel.SortedRows() {
			t := make([]scalar, len(r.Tuple))
			for i, v := range r.Tuple {
				t[i] = toScalar(v)
			}
			rows = append(rows, row{Tuple: t, Count: r.Count})
		}
		snap.Relations[pred] = rows
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	cw := &crcWriter{w: bw}
	if err := gob.NewEncoder(cw).Encode(&snap); err != nil {
		return fail(err)
	}
	var footer [snapFooterSize]byte
	copy(footer[:4], snapFooterMagic[:])
	binary.BigEndian.PutUint32(footer[4:], cw.crc)
	if _, err := bw.Write(footer[:]); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// LoadFile reads the snapshot at path: the database, the program text,
// the hidden-predicate set and the base version it was stamped with. The
// file is read once and its checksum footer is always verified before
// anything is decoded.
func LoadFile(path string) (*eval.DB, string, []string, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", nil, 0, err
	}
	bodyLen := len(data) - snapFooterSize
	if bodyLen < 0 || !bytes.Equal(data[bodyLen:bodyLen+4], snapFooterMagic[:]) {
		return nil, "", nil, 0, fmt.Errorf("storage: snapshot %s has no checksum footer: truncated or damaged", path)
	}
	body := data[:bodyLen]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(data[bodyLen+4:]); got != want {
		return nil, "", nil, 0, fmt.Errorf("storage: snapshot %s checksum mismatch (%08x != %08x)", path, got, want)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		return nil, "", nil, 0, fmt.Errorf("storage: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, "", nil, 0, &UnknownFormatError{What: "snapshot", Format: snap.Version}
	}
	db := eval.NewDB()
	for pred, rows := range snap.Relations {
		var rel *relation.Relation
		for _, rw := range rows {
			t := make(value.Tuple, len(rw.Tuple))
			for i, s := range rw.Tuple {
				v, err := s.value()
				if err != nil {
					return nil, "", nil, 0, err
				}
				t[i] = v
			}
			if rel == nil {
				rel = relation.New(len(t))
			}
			rel.Add(t, rw.Count)
		}
		if rel == nil {
			rel = relation.New(-1)
		}
		db.Put(pred, rel)
	}
	return db, snap.Program, snap.Hidden, snap.BaseVersion, nil
}
