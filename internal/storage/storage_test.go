package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/value"
)

func sampleDB() *eval.DB {
	db := eval.NewDB()
	link := relation.New(2)
	link.Add(value.T("a", "b"), 1)
	link.Add(value.T("b", "c"), 3)
	db.Put("link", link)
	hop := relation.New(3)
	hop.Add(value.T("a", 2.5, int64(7)), 2)
	db.Put("hop", hop)
	db.Put("empty", relation.New(1))
	return db
}

// snapshotBytes renders snap as a snapshot file image: the gob body plus
// the checksum footer SaveFile appends.
func snapshotBytes(t testing.TB, snap snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	var footer [snapFooterSize]byte
	copy(footer[:4], snapFooterMagic[:])
	binary.BigEndian.PutUint32(footer[4:], crc32.Checksum(buf.Bytes(), castagnoli))
	return append(buf.Bytes(), footer[:]...)
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := sampleDB()
	path := filepath.Join(t.TempDir(), "snap.gob")
	if err := SaveFile(path, db, "hop(X,Y) :- link(X,Z), link(Z,Y).", []string{"aux_1", "aux_2"}, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file must be renamed away")
	}
	got, prog, hidden, base, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if prog != "hop(X,Y) :- link(X,Z), link(Z,Y)." || base != 42 {
		t.Fatalf("program: %q base: %d", prog, base)
	}
	if len(hidden) != 2 || hidden[0] != "aux_1" || hidden[1] != "aux_2" {
		t.Fatalf("hidden: %v", hidden)
	}
	for _, pred := range []string{"link", "hop"} {
		if !relation.Equal(db.Get(pred), got.Get(pred)) {
			t.Fatalf("%s: %v vs %v", pred, db.Get(pred), got.Get(pred))
		}
	}
	if got.Get("empty") == nil || got.Get("empty").Len() != 0 {
		t.Fatal("empty relation must survive")
	}
}

// Every way a snapshot file can be damaged is an error from LoadFile —
// including damage to the footer itself, which must not switch the check
// off — and none of them is mistaken for a foreign format.
func TestLoadFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")
	if err := SaveFile(path, sampleDB(), "p.", nil, 0); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int) []byte {
		data := append([]byte(nil), good...)
		data[off] ^= 0x40
		return data
	}
	for name, data := range map[string][]byte{
		// In-place corruption that gob decoding might survive.
		"body bit flip":       flip(len(good) / 2),
		"footer magic flip":   flip(len(good) - snapFooterSize),
		"footer crc flip":     flip(len(good) - 1),
		"footer cut off":      good[:len(good)-snapFooterSize],
		"shorter than footer": good[:3],
		"not a gob stream":    []byte("not a gob stream"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, _, err := LoadFile(path)
		var unknown *UnknownFormatError
		if err == nil || errors.As(err, &unknown) {
			t.Errorf("%s: LoadFile = %v, want a damage error", name, err)
		}
	}
}

// An intact snapshot in any layout but the current one — the retired
// versions 1 and 2 as much as a future one — is refused with the typed
// error rather than read on a guess.
func TestLoadFileRejectsOtherVersions(t *testing.T) {
	for _, version := range []int{0, 1, 2, snapshotVersion + 1} {
		path := filepath.Join(t.TempDir(), "snap.gob")
		data := snapshotBytes(t, snapshot{Version: version, Program: "p(X) :- q(X).", Relations: map[string][]row{
			"q": {{Tuple: []scalar{{Kind: 0, I: 7}}, Count: 1}},
		}})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, _, err := LoadFile(path)
		var unknown *UnknownFormatError
		if !errors.As(err, &unknown) || unknown.What != "snapshot" || unknown.Format != version {
			t.Errorf("version %d: LoadFile = %v, want *UnknownFormatError", version, err)
		}
	}
}
