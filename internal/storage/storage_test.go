package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// gobSnapshot renders a snapshot file image in a retired gob layout: a
// body naming its Version, as layouts 1-3 did, plus the checksum footer.
func gobSnapshot(t testing.TB, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Version int
		Program string
	}{version, "old."}); err != nil {
		t.Fatal(err)
	}
	return withFooter(buf.Bytes())
}

// withFooter appends the checksum footer SaveFile closes a body with.
func withFooter(body []byte) []byte {
	var footer [snapFooterSize]byte
	copy(footer[:4], snapFooterMagic[:])
	binary.BigEndian.PutUint32(footer[4:], crc32.Checksum(body, castagnoli))
	return append(body, footer[:]...)
}

func sampleState() State {
	return State{Version: 42, Engine: 5, Config: 1, Program: "hop(X,Y) :- link(X,Z), link(Z,Y).", Hidden: []string{"aux_1", "aux_2"}, DB: sampleDB()}
}

// requireSameState fails unless got holds want's fields and, relation by
// relation, its arity and rows.
func requireSameState(t testing.TB, want, got State) {
	t.Helper()
	if got.Version != want.Version || got.Engine != want.Engine || got.Config != want.Config || got.Program != want.Program || !slices.Equal(got.Hidden, want.Hidden) {
		t.Fatalf("state %d/%d/%d %q %v, want %d/%d/%d %q %v", got.Version, got.Engine, got.Config, got.Program, got.Hidden,
			want.Version, want.Engine, want.Config, want.Program, want.Hidden)
	}
	if !slices.Equal(got.DB.Preds(), want.DB.Preds()) {
		t.Fatalf("relations %v, want %v", got.DB.Preds(), want.DB.Preds())
	}
	for _, pred := range want.DB.Preds() {
		if w, g := want.DB.Get(pred), got.DB.Get(pred); g.Arity() != w.Arity() || !relation.Equal(w, g) {
			t.Fatalf("%s: %v (arity %d), want %v (arity %d)", pred, g, g.Arity(), w, w.Arity())
		}
	}
}

// A state round-trips every relation — an empty one with its arity — and
// a relation of still unknown arity, which holds nothing, is left out.
func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleState()
	path := filepath.Join(t.TempDir(), "snap.gob")
	withUnknown := sampleState()
	withUnknown.DB.Put("unread", relation.New(-1))
	if err := SaveFile(path, withUnknown); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file must be renamed away")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, want, got)
	if got.DB.Get("empty").Arity() != 1 {
		t.Fatal("the empty relation must keep its arity")
	}
	// The same record is an 'S' payload.
	payload, err := want.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeState(payload); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, want, got)
}

// Every way a snapshot file can be damaged is an error from LoadFile —
// including damage to the footer itself, which must not switch the check
// off — and none of them is mistaken for a foreign format.
func TestLoadFileRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")
	if err := SaveFile(path, sampleState()); err != nil {
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
	body := good[:len(good)-snapFooterSize]
	for name, data := range map[string][]byte{
		// In-place corruption that would still decode.
		"body bit flip":       flip(len(good) / 2),
		"count bit flip":      flip(len(body) - len("s1:b|s1:c|") - 1),
		"footer magic flip":   flip(len(good) - snapFooterSize),
		"footer crc flip":     flip(len(good) - 1),
		"footer cut off":      body,
		"shorter than footer": good[:3],
		// Checksummed, in this layout, and malformed: a writer bug.
		"truncated layout 4": withFooter(body[:len(body)-2]),
		"fixed header only":  withFooter(body[:stateFixed+3]),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		var unknown *UnknownFormatError
		if err == nil || errors.As(err, &unknown) {
			t.Errorf("%s: LoadFile = %v, want a damage error", name, err)
		}
	}
}

// An intact snapshot in any layout but the current one — the gob
// layouts 1-3 (3 as the previous build wrote it) as much as a future
// one — is refused with the typed error rather than read on a guess.
func TestLoadFileRejectsOtherVersions(t *testing.T) {
	v3, err := os.ReadFile(filepath.Join("testdata", "snapshot-v3.gob"))
	if err != nil {
		t.Fatal(err)
	}
	next := withFooter(append([]byte{stateLayout + 1}, make([]byte, stateFixed)...))
	for version, data := range map[int][]byte{0: gobSnapshot(t, 0), 1: gobSnapshot(t, 1), 2: gobSnapshot(t, 2), 3: v3, stateLayout + 1: next} {
		path := filepath.Join(t.TempDir(), "snap.gob")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		var unknown *UnknownFormatError
		if !errors.As(err, &unknown) || unknown.What != "snapshot" || unknown.Format != version {
			t.Errorf("layout %d: LoadFile = %v, want *UnknownFormatError", version, err)
		}
	}
}

// A section's width checks refuse what its fields cannot describe, and
// a state record's decoder refuses what no writer produces.
func TestStateRefusals(t *testing.T) {
	st := sampleState()
	st.DB.Put("wide", relation.New(math.MaxUint16+1))
	if _, err := st.AppendTo(nil); err == nil {
		t.Fatal("a relation of arity 65536 was written")
	}
	// A commit record's section is refused an arity still unknown.
	if _, err := EncodeCommitRecord(2, nil, nil, 0, map[string]*relation.Relation{"p": relation.New(-1)}); err == nil {
		t.Fatal("a delta of arity -1 was cut")
	}
	for name, payload := range map[string][]byte{
		"empty":              nil,
		"JSON, as 'S' was":   []byte(`{"program":"p."}`),
		"short header":       {stateLayout, 0, 0},
		"program past end":   append([]byte{stateLayout}, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9),
		"zero-count row":     stateWithRow(0),
		"negative count row": stateWithRow(-2),
	} {
		if _, err := DecodeState(payload); err == nil {
			t.Errorf("%s: DecodeState accepted %x", name, payload)
		}
	}
	for name, payload := range malformedStatePayloads(t) {
		if _, err := DecodeState(payload); !errors.Is(err, errMalformedRecord) {
			t.Errorf("%s: DecodeState = %v, want a malformed-record error", name, err)
		}
	}
	if st, err := DecodeState(stateWithRow(3)); err != nil || st.DB.Get("p").Count(value.T("x")) != 3 {
		t.Fatalf("DecodeState = %v, %v", st, err)
	}
}

// stateWithRow is a state record of one row, p(x) with count.
func stateWithRow(count int64) []byte {
	b := append([]byte{stateLayout}, make([]byte, stateFixed-1+8)...)
	b = append(b, 0, 1, 'p', 0, 1, 0, 0, 0, 1)
	b = binary.AppendVarint(b, count)
	return append(b, value.T("x").Key()...)
}
