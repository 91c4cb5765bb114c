// Package storage persists databases (relations with derivation counts)
// and view programs: the state record that checksummed snapshot files and
// replication 'S' records carry (this file), the commit record and its WAL
// framing (record.go), the managed checkpoint + write-ahead-log directory
// that pairs them (store.go), and the replication stream that ships the
// same records (repl.go).
package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"ivm/internal/eval"
	"ivm/internal/relation"
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

// State is a full state record: everything that reproduces a Views at one
// version without evaluating a rule — the program, the hidden-predicate
// set, the version, the configuration, and every stored row, base and
// derived, with the count the engine keeps for it. The views after n
// commits are x ⊎ Δ₁ ⊎ … ⊎ Δₙ, and a state record is x = ∅ ⊎ Δ₀. It is
// the body of a snapshot file (layout 4) and the payload of a replication
// 'S' record:
//
//	[layout u8 = 4][version u64][engine u8][config u8][plen u32][program]
//	[hlen u32][hidden names, newline-separated] then one section per
//	relation, as a commit record's delta section: [nlen u16][name]
//	[arity u16][nrows u32]([count varint][tuple key])*
//
// engine is the stamp of what maintained the stored counts — a commit
// record's engine byte — and config the same stamp of the strategy the
// writer was configured with (they differ where a configured Auto runs one
// algorithm on every stratum). A row's count is its stored count, never
// below 1.
type State struct {
	Version        uint64
	Engine, Config byte
	Program        string
	Hidden         []string
	// DB holds every stored relation. A relation of still unknown
	// (negative) arity is empty and is not written.
	DB *eval.DB
}

// stateLayout is the one state record layout this build reads and
// writes: it is snapshot layout 4 (layouts 1-3 were gob encodings).
const stateLayout = 4

// stateFixed is the record's size before the program's length.
const stateFixed = 1 + 8 + 1 + 1

// AppendTo appends the state record to dst.
func (st State) AppendTo(dst []byte) ([]byte, error) {
	dst = append(dst, stateLayout)
	dst = binary.BigEndian.AppendUint64(dst, st.Version)
	dst = append(dst, st.Engine, st.Config)
	for _, text := range []string{st.Program, strings.Join(st.Hidden, "\n")} {
		if uint64(len(text)) > math.MaxUint32 {
			return nil, fmt.Errorf("storage: %d bytes of program or hidden names exceed the state record's field width", len(text))
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(text)))
		dst = append(dst, text...)
	}
	var err error
	for _, pred := range st.DB.Preds() {
		if rel := st.DB.Get(pred); rel.Arity() >= 0 {
			if dst, err = appendSection(dst, pred, rel); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// stateVersion reads a state record's layout and version without decoding
// the rest: any layout but this build's is an *UnknownFormatError.
func stateVersion(payload []byte, what string) (uint64, error) {
	if len(payload) == 0 || payload[0] != stateLayout {
		format := -1
		if len(payload) > 0 {
			format = int(payload[0])
		}
		return 0, &UnknownFormatError{What: what, Format: format}
	}
	if len(payload) < stateFixed {
		return 0, fmt.Errorf("%w: %d-byte state record is shorter than its fixed header", errMalformedRecord, len(payload))
	}
	return binary.BigEndian.Uint64(payload[1:9]), nil
}

// DecodeState parses a state record, each relation straight into a table
// sized for its rows. The relations are fresh and the caller's; nothing
// aliases payload.
func DecodeState(payload []byte) (State, error) {
	version, err := stateVersion(payload, "state record")
	if err != nil {
		return State{}, err
	}
	st := State{Version: version, Engine: payload[9], Config: payload[10], DB: eval.NewDB()}
	b := payload[stateFixed:]
	var texts [2]string
	for i := range texts {
		if len(b) < 4 || uint64(len(b)-4) < uint64(binary.BigEndian.Uint32(b)) {
			return State{}, fmt.Errorf("%w: truncated in the program or hidden names", errMalformedRecord)
		}
		n := 4 + int(binary.BigEndian.Uint32(b))
		texts[i], b = string(b[4:n]), b[n:]
	}
	if st.Program = texts[0]; texts[1] != "" {
		st.Hidden = strings.Split(texts[1], "\n")
	}
	for rd := (&DeltaReader{b: b}); ; {
		pred, arity, nrows, err := rd.Next()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return State{}, err
		}
		rel := relation.NewSized(arity, nrows)
		for i := 0; i < nrows; i++ {
			count, key, err := rd.Row()
			if err != nil {
				return State{}, err
			}
			row, err := relation.RowFromKey(key, arity)
			if err != nil || count < 0 {
				return State{}, fmt.Errorf("%w: %s row %d", errMalformedRecord, pred, i)
			}
			rel.AddRow(row.WithCount(count))
		}
		if st.DB.Get(pred) != nil || rel.Len() != nrows {
			return State{}, fmt.Errorf("%w: the state lists %s or one of its rows twice", errMalformedRecord, pred)
		}
		st.DB.Put(pred, rel)
	}
}

// snapFooterMagic opens the whole-file CRC32C footer
// (`magic | crc32c(body)`) that closes every snapshot, so in-place
// corruption that still parses — a flipped bit in a count, say — is
// caught: a snapshot whose footer is missing, mangled or mismatched is
// damaged, whatever its body decodes to.
var snapFooterMagic = [4]byte{'I', 'V', 'S', '1'}

const snapFooterSize = 8

// saveFile writes st as a snapshot file at path — its state record and
// the checksum footer over it — atomically and durably: the temp file is
// fsynced before the rename and the parent directory is fsynced after it,
// so a crash at any point leaves either the old snapshot or the complete
// new one, never a missing or empty file.
func saveFile(path string, st State) error {
	data, err := st.AppendTo(nil)
	if err != nil {
		return err
	}
	data = append(data, snapFooterMagic[:]...)
	data = binary.BigEndian.AppendUint32(data, crc32.Checksum(data[:len(data)-4], castagnoli))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// loadFile reads the snapshot at path. The file is read once and its
// checksum footer is verified before anything is decoded. An intact file
// in another layout — the gob encodings of layouts 1-3 included — is an
// *UnknownFormatError.
func loadFile(path string) (State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return State{}, err
	}
	bodyLen := len(data) - snapFooterSize
	if bodyLen < 0 || !bytes.Equal(data[bodyLen:bodyLen+4], snapFooterMagic[:]) {
		return State{}, fmt.Errorf("storage: snapshot %s has no checksum footer: truncated or damaged", path)
	}
	body := data[:bodyLen]
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(data[bodyLen+4:]); got != want {
		return State{}, fmt.Errorf("storage: snapshot %s checksum mismatch (%08x != %08x)", path, got, want)
	}
	if len(body) > 0 && body[0] != stateLayout {
		// A gob stream opens with its first message's length, never 4;
		// the layouts it carried named themselves in a Version field.
		var gobbed struct{ Version int }
		if gob.NewDecoder(bytes.NewReader(body)).Decode(&gobbed) == nil {
			return State{}, &UnknownFormatError{What: "snapshot", Format: gobbed.Version}
		}
	}
	if _, err := stateVersion(body, "snapshot"); err != nil {
		return State{}, err
	}
	st, err := DecodeState(body)
	if err != nil {
		return State{}, fmt.Errorf("storage: decoding snapshot %s: %w", path, err)
	}
	return st, nil
}
