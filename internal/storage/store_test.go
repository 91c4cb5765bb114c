package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ivm/internal/metrics"
	"ivm/internal/relation"
	"ivm/internal/value"
)

func openTestStore(t *testing.T, dir string, opts StoreOptions) *Store {
	t.Helper()
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func walPath(dir string) string { return filepath.Join(dir, walFileName) }

// appendRec durably appends one commit record through the store's one
// append call.
func appendRec(t testing.TB, s *Store, version uint64, script string, keys ...string) {
	t.Helper()
	wait, err := s.AppendVersionedAsync(version, script, keys)
	if err == nil {
		err = wait()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// checkpoint writes the sample database as the store's next epoch.
func checkpoint(t testing.TB, s *Store, program string, hidden ...string) {
	t.Helper()
	if err := s.CheckpointAt(State{Program: program, Hidden: hidden, DB: sampleDB()}); err != nil {
		t.Fatal(err)
	}
}

// scripts lists the delta scripts of the records recovery handed back.
// The store hands them over once, so call it once per store.
func scripts(s *Store) []string {
	recs := s.Records()
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Script
	}
	return out
}

// rawWALRecord frames an arbitrary payload as a checksum-valid WAL
// record, spelling the header layout out independently of the encoder.
func rawWALRecord(epoch, seq uint64, payload []byte) []byte {
	rec := make([]byte, walHeaderSize, walHeaderSize+len(payload))
	binary.BigEndian.PutUint64(rec[0:8], epoch)
	binary.BigEndian.PutUint64(rec[8:16], seq)
	binary.BigEndian.PutUint32(rec[16:20], uint32(len(payload)))
	rec = append(rec, payload...)
	crc := crc32.Checksum(rec[0:20], castagnoli)
	binary.BigEndian.PutUint32(rec[20:24], crc32.Update(crc, castagnoli, payload))
	return rec
}

// dirImage reads every file in dir, so a test can require a refused open
// to have left the directory byte-for-byte unchanged.
func dirImage(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(data)
	}
	return img
}

func TestStoreEmptyOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	if _, ok := s.Snapshot(); ok {
		t.Fatal("empty store must have no snapshot")
	}
	if got := scripts(s); len(got) != 0 || s.Epoch() != 0 {
		t.Fatalf("scripts=%v epoch=%d", got, s.Epoch())
	}
}

func TestStoreAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < 5; i++ {
		appendRec(t, s, uint64(i+2), fmt.Sprintf("+p(%d).", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := scripts(s2); len(got) != 5 || got[0] != "+p(0)." || got[4] != "+p(4)." {
		t.Fatalf("scripts: %v", got)
	}
	info := s2.Recovery()
	if info.SkippedStale != 0 || info.TornTail || info.CorruptRecords != 0 {
		t.Fatalf("info: %+v", info)
	}
}

func TestStoreCheckpointSupersedesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	appendRec(t, s, 2, "+p(1).")
	checkpoint(t, s, "prog.", "aux")
	appendRec(t, s, 3, "+p(2).")
	s.Close()

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	st, ok := s2.Snapshot()
	if !ok || st.Program != "prog." || len(st.Hidden) != 1 || st.Hidden[0] != "aux" {
		t.Fatalf("snapshot: ok=%v prog=%q hidden=%v", ok, st.Program, st.Hidden)
	}
	if st.DB.Get("link").Count(value.T("b", "c")) != 3 {
		t.Fatal("snapshot db contents")
	}
	if got := scripts(s2); len(got) != 1 || got[0] != "+p(2)." {
		t.Fatalf("scripts: %v", got)
	}
	if s2.Epoch() != 1 {
		t.Fatalf("epoch: %d", s2.Epoch())
	}
}

func TestStoreSkipsStaleEpochRecords(t *testing.T) {
	// Simulate a crash between the checkpoint rename and the WAL
	// truncate: after Checkpoint, restore the pre-checkpoint WAL bytes.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < 3; i++ {
		appendRec(t, s, uint64(i+2), fmt.Sprintf("+p(%d).", i))
	}
	pre, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(t, s, "prog.")
	s.Close()
	if err := os.WriteFile(walPath(dir), pre, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	info := s2.Recovery()
	if info.SkippedStale != 3 || info.Replayed != 0 {
		t.Fatalf("info: %+v", info)
	}
	if got := scripts(s2); len(got) != 0 {
		t.Fatalf("stale records must not replay: %v", got)
	}
}

func TestStoreTornTail(t *testing.T) {
	whole := rawWALRecord(0, 99, []byte("\x01 a record the crash cut short"))
	badCRC := append([]byte(nil), whole...)
	badCRC[len(badCRC)-1] ^= 0x80
	for name, tail := range map[string][]byte{
		"torn header":  {1, 2, 3},
		"torn payload": whole[:walHeaderSize+3],
		// A checksum failure on the very last record is indistinguishable
		// from a torn append; it is dropped without error.
		"checksum-failing final record": badCRC,
		// A garbage header claiming ~4 GiB must not allocate 4 GiB: the
		// length is bounded by the bytes present and the tail is torn.
		"absurd length header": append(bytes.Repeat([]byte{0xff}, walHeaderSize), "junk"...),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, StoreOptions{})
			appendRec(t, s, 2, "+p(1).")
			s.Close()
			f, err := os.OpenFile(walPath(dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(tail)
			f.Close()

			s2 := openTestStore(t, dir, StoreOptions{})
			defer s2.Close()
			info := s2.Recovery()
			if !info.TornTail || info.CorruptRecords != 0 {
				t.Fatalf("%s: info: %+v", name, info)
			}
			if got := scripts(s2); len(got) != 1 || got[0] != "+p(1)." {
				t.Fatalf("%s: scripts: %v", name, got)
			}
			// The torn tail is truncated away, so appends resume cleanly.
			appendRec(t, s2, 3, "+p(2).")
			s2.Close()
			s3 := openTestStore(t, dir, StoreOptions{})
			defer s3.Close()
			if got := scripts(s3); len(got) != 2 || got[1] != "+p(2)." {
				t.Fatalf("%s: after tail truncation: %v", name, got)
			}
		})
	}
}

func TestStoreBitFlipRefusesWithoutRepairOptIn(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < 3; i++ {
		appendRec(t, s, uint64(i+2), fmt.Sprintf("+p(%d).", i))
	}
	s.Close()
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the middle record: acknowledged records sit
	// behind the damage.
	recLen := walHeaderSize + commitRecordFixed + len("+p(0).")
	data[recLen+walHeaderSize] ^= 0x01
	if err := os.WriteFile(walPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Default recovery must fail loudly and leave the file untouched.
	_, err = OpenStore(dir, StoreOptions{})
	var ce *CorruptWALError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptWALError, got %v", err)
	}
	if ce.Offset != int64(recLen) {
		t.Fatalf("corrupt offset %d, want %d", ce.Offset, recLen)
	}
	after, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("refusing recovery must not truncate the WAL (%d -> %d bytes)", len(data), len(after))
	}

	// The repair opt-in keeps the valid prefix and discards the rest.
	s2 := openTestStore(t, dir, StoreOptions{RepairCorruptWAL: true})
	defer s2.Close()
	info := s2.Recovery()
	if info.CorruptRecords != 1 {
		t.Fatalf("info: %+v", info)
	}
	if got := scripts(s2); len(got) != 1 || got[0] != "+p(0)." {
		t.Fatalf("only the valid prefix may replay: %v", got)
	}
	if info.DiscardedBytes == 0 {
		t.Fatal("discarded bytes must be reported")
	}
}

func TestStoreMissingSnapshotForNewerEpochFails(t *testing.T) {
	// WAL records stamped with an epoch newer than every readable
	// snapshot mean the covering snapshot is gone (e.g. its directory
	// entry was never synced); recovery must refuse rather than lose the
	// records truncated at that checkpoint.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	checkpoint(t, s, "prog.")
	appendRec(t, s, 2, "+p(1).")
	s.Close()
	if err := os.Remove(filepath.Join(dir, snapName(1))); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenStore(dir, StoreOptions{}); err == nil {
		t.Fatal("recovery must fail when the snapshot covering the WAL epoch is missing")
	} else if !strings.Contains(err.Error(), "not recoverable") {
		t.Fatalf("error: %v", err)
	}
}

func TestStoreFallsBackToPreviousSnapshot(t *testing.T) {
	// A corrupt newest snapshot with a WAL that never reached its epoch:
	// recovery falls back to the previous snapshot and replays.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	checkpoint(t, s, "v1.")
	appendRec(t, s, 2, "+p(1).")
	pre, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(t, s, "v2.")
	s.Close()
	// Corrupt snapshot-2 and restore the pre-checkpoint WAL (epoch-1
	// records), as if the second checkpoint never became durable.
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), pre, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	info := s2.Recovery()
	if info.Epoch != 1 || info.BadSnapshots != 1 {
		t.Fatalf("info: %+v", info)
	}
	if st, ok := s2.Snapshot(); !ok || st.Program != "v1." {
		t.Fatalf("must fall back to snapshot 1 (prog=%q ok=%v)", st.Program, ok)
	}
	if got := scripts(s2); len(got) != 1 || got[0] != "+p(1)." {
		t.Fatalf("scripts: %v", got)
	}
}

func TestStorePartialRenameLeftoverIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	checkpoint(t, s, "prog.")
	appendRec(t, s, 2, "+p(1).")
	s.Close()
	// A checkpoint that died before its rename leaves only a temp file.
	tmp := filepath.Join(dir, snapName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := scripts(s2); s2.Epoch() != 1 || len(got) != 1 {
		t.Fatalf("epoch=%d scripts=%v", s2.Epoch(), got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp leftovers must be removed")
	}
}

func TestStorePrunesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	for i := 0; i < 4; i++ {
		checkpoint(t, s, "prog.")
	}
	for ep := uint64(1); ep <= 2; ep++ {
		if _, err := os.Stat(filepath.Join(dir, snapName(ep))); !os.IsNotExist(err) {
			t.Fatalf("snapshot %d must be pruned", ep)
		}
	}
	for ep := uint64(3); ep <= 4; ep++ {
		if _, err := os.Stat(filepath.Join(dir, snapName(ep))); err != nil {
			t.Fatalf("snapshot %d must be kept: %v", ep, err)
		}
	}
}

func TestStoreGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	reg := metrics.NewRegistry()
	s.AttachMetrics(reg)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				wait, err := s.AppendVersionedAsync(uint64(w*perWriter+i+2), fmt.Sprintf("+p(%d,%d).", w, i), nil)
				if err == nil {
					err = wait()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("storage_wal_appends_total"); got != writers*perWriter {
		t.Fatalf("appends counter: %d", got)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := len(scripts(s2)); got != writers*perWriter {
		t.Fatalf("recovered %d of %d records", got, writers*perWriter)
	}
}

func TestStoreAppendsThenWaitsCostOneFsync(t *testing.T) {
	// A scheduler batch appends every group's record, then waits on each:
	// the first wait fsyncs through the last record written and covers the
	// rest, and no wait returns before that fsync.
	s := openTestStore(t, t.TempDir(), StoreOptions{})
	defer s.Close()
	reg := metrics.NewRegistry()
	s.AttachMetrics(reg)
	fsyncs := func() int64 { return reg.Snapshot().Counter("storage_wal_fsyncs_total") }
	const k = 5
	var waits []func() error
	for i := 0; i < k; i++ {
		wait, err := s.AppendVersionedAsync(uint64(i+2), fmt.Sprintf("+p(%d).", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	if got := fsyncs(); got != 0 {
		t.Fatalf("%d fsyncs before any wait, want 0", got)
	}
	for i, wait := range waits {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs(); got != 1 {
			t.Fatalf("after wait %d: %d fsyncs, want 1", i+1, got)
		}
	}
	appendRec(t, s, k+2, "+p(9).")
	if got := fsyncs(); got != 2 {
		t.Fatalf("a record written after the fsync needs its own: %d fsyncs, want 2", got)
	}
}

func TestStoreGroupCommitCloseNeverFailsDurableAppends(t *testing.T) {
	// Race Close against concurrent appenders: any append that
	// passes the closed check has its record written, so its wait() must
	// report success (Close's fsync covers it), and the record must be
	// there on recovery — a written record is never reported back as
	// ErrStoreClosed.
	for round := 0; round < 25; round++ {
		dir := t.TempDir()
		s := openTestStore(t, dir, StoreOptions{})
		const writers = 8
		var acked atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				wait, err := s.AppendVersionedAsync(uint64(w+2), fmt.Sprintf("+p(%d).", w), nil)
				if err != nil {
					if err != ErrStoreClosed {
						t.Errorf("append: %v", err)
					}
					return
				}
				if werr := wait(); werr != nil {
					t.Errorf("a written record must not report failure on close: %v", werr)
					return
				}
				acked.Add(1)
			}(w)
		}
		close(start)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		s2 := openTestStore(t, dir, StoreOptions{})
		if got := int64(len(scripts(s2))); got != acked.Load() {
			t.Fatalf("round %d: recovered %d records, acknowledged %d", round, got, acked.Load())
		}
		s2.Close()
	}
}

func TestStoreAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	s.Close()
	if _, err := s.AppendVersionedAsync(2, "+p(1).", nil); err != ErrStoreClosed {
		t.Fatalf("err: %v", err)
	}
	if err := s.CheckpointAt(State{Program: "p.", DB: sampleDB()}); err != ErrStoreClosed {
		t.Fatalf("err: %v", err)
	}
	if _, err := s.TailRecords(0); err != ErrStoreClosed {
		t.Fatalf("err: %v", err)
	}
}

func TestCommitRecordRoundTrip(t *testing.T) {
	for _, want := range []CommitRecord{
		{Version: 2, Script: "+p(1)."},
		{Version: 42, Script: "+p(1).", Keys: []string{"k1"}},
		{Version: 3, Script: "+p(1). -q(2).", Keys: []string{"a", "b", "c"}},
		{Version: 4, Keys: []string{"only-keys"}},
		{Version: 5, Script: "+p(1).", Keys: []string{""}},
		{Version: 6, Script: "+p(1).", Keys: []string{strings.Repeat("K", 300)}},
		{Version: 1<<64 - 1},
		{},
	} {
		payload, err := want.AppendTo(nil)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		if len(payload) != want.encodedLen() {
			t.Fatalf("%+v: encodedLen %d, encoded %d bytes", want, want.encodedLen(), len(payload))
		}
		got, err := DecodeCommitRecord(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("%+v: the decoded record does not keep its payload", want)
		}
		got.Payload = nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
	if _, err := (CommitRecord{Keys: []string{strings.Repeat("K", 0x10000)}}).AppendTo(nil); err == nil {
		t.Fatal("an over-long key must be refused, not truncated")
	}
}

// The layout is pinned byte for byte: a keyed and a keyless record, a rule
// edit's, and the WAL frame around one of them. Drift here breaks every
// store and every follower in the field, so it must fail loudly.
func TestCommitRecordGoldenBytes(t *testing.T) {
	keyed := CommitRecord{Version: 0x0102030405060708, Keys: []string{"k1", "key-2"}, Script: "+p(1)."}
	keyless := CommitRecord{Version: 7, Script: "-q(a,b)."}
	for _, c := range []struct {
		rec  CommitRecord
		want string
	}{
		// format | version | nkeys | klen "k1" | klen "key-2" | script
		{keyed, "01" + "0102030405060708" + "0002" + "0002" + "6b31" + "0005" + "6b65792d32" + "2b702831292e"},
		{keyless, "01" + "0000000000000007" + "0000" + "2d7128612c62292e"},
		// format 3 | version | nkeys | klen "k1" | plen 13 | "p(X) :- q(X)." | engine |
		//   nlen "p" | arity 1 | nrows 1 | count +1 (zigzag 2) | key s1:a|
		{editRecord(t), "03" + "0000000000000009" + "0001" + "0002" + "6b31" + "0000000d" + "70285829203a2d20712858292e" + "08" +
			"0001" + "70" + "0001" + "00000001" + "02" + "73313a617c"},
	} {
		got, err := c.rec.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.want {
			t.Errorf("%+v payload:\n got %x\nwant %s", c.rec, got, c.want)
		}
	}
	// epoch | seq | len | crc32c(header[:20] + payload) | payload
	const wantFrame = "0000000000000003" + "0000000000000009" + "00000013" + "64e0d6b7" + "01" + "0000000000000007" + "0000" + "2d7128612c62292e"
	frame, err := encodeWALRecord(3, 9, keyless)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(frame) != wantFrame {
		t.Errorf("WAL frame:\n got %x\nwant %s", frame, wantFrame)
	}
	if !bytes.Equal(frame, rawWALRecord(3, 9, frame[walHeaderSize:])) {
		t.Error("encodeWALRecord and the spelled-out header layout disagree")
	}
}

// deltaRecord cuts the format-2 record the delta tests share: one keyed
// commit that adds a link row and takes a nullary flag out twice.
func deltaRecord(t testing.TB) CommitRecord {
	t.Helper()
	link := relation.New(2)
	link.Add(value.T("a", "b"), 1)
	flag := relation.New(0)
	flag.Add(value.T(), -2)
	rec, err := EncodeCommitRecord(7, []string{"k1"}, nil, 0x05, map[string]*relation.Relation{"link": link, "flag": flag})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// editRecord cuts the format-3 record the rule-edit tests share: a keyed
// DRed edit that leaves the program p(X) :- q(X). and derives p(a).
func editRecord(t testing.TB) CommitRecord {
	t.Helper()
	p := relation.New(1)
	p.Add(value.T("a"), 1)
	program := "p(X) :- q(X)."
	rec, err := EncodeCommitRecord(9, []string{"k1"}, &program, 0x08, map[string]*relation.Relation{"p": p})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// readProgram walks a record's program section the way a fold reads it:
// present only in a format-3 record, framed by its length and followed by
// the engine byte.
func readProgram(rec CommitRecord) (string, error) {
	src, ok := rec.Program()
	if ok != (rec.Payload[0] == formatEdit) {
		return "", fmt.Errorf("format %d record reports a program: %v", rec.Payload[0], ok)
	}
	if ok && (int(binary.BigEndian.Uint32(rec.Payload[rec.program-4:])) != len(src) || rec.program+len(src) != rec.deltas-1) {
		return "", fmt.Errorf("program section %q does not fill its frame", src)
	}
	return src, nil
}

// readDeltas walks a record's delta section into "pred/arity: count key"
// lines, the way a fold reads it.
func readDeltas(rec CommitRecord) ([]string, error) {
	var out []string
	for rd := rec.Deltas(); ; {
		pred, arity, nrows, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		for i := 0; i < nrows; i++ {
			count, key, err := rd.Row()
			if err != nil {
				return out, err
			}
			if n, err := value.KeyLen(key, arity); err != nil || n != len(key) {
				return out, fmt.Errorf("row key %q is not one arity-%d key", key, arity)
			}
			out = append(out, fmt.Sprintf("%s/%d: %d %s", pred, arity, count, key))
		}
	}
}

// Format 2 is pinned byte for byte like format 1, round-trips through
// the decoder with its payload kept verbatim, and reads back row by row.
func TestCommitRecordDeltasGoldenBytes(t *testing.T) {
	rec := deltaRecord(t)
	// format | version | nkeys | klen "k1" | engine |
	//   nlen "flag" | arity 0 | nrows 1 | count -2 (zigzag 3), empty key |
	//   nlen "link" | arity 2 | nrows 1 | count +1 (zigzag 2) | key s1:a|s1:b|
	const want = "02" + "0000000000000007" + "0001" + "0002" + "6b31" + "05" +
		"0004" + "666c6167" + "0000" + "00000001" + "03" +
		"0004" + "6c696e6b" + "0002" + "00000001" + "02" + "73313a617c73313a627c"
	if got := hex.EncodeToString(rec.Payload); got != want {
		t.Fatalf("payload:\n got %s\nwant %s", got, want)
	}
	if !rec.HasDeltas() || rec.encodedLen() != len(rec.Payload) || cap(rec.Payload) != len(rec.Payload) {
		t.Fatalf("record %+v: not cut as an exact-size format-2 payload (cap %d)", rec, cap(rec.Payload))
	}
	again, err := DecodeCommitRecord(rec.Payload)
	if err != nil || !reflect.DeepEqual(again, rec) {
		t.Fatalf("decode = %+v, %v; want %+v", again, err, rec)
	}
	if again.Engine() != 0x05 {
		t.Fatalf("engine byte = %#x, want 0x05", again.Engine())
	}
	if framed, _ := again.AppendTo(nil); !bytes.Equal(framed, rec.Payload) {
		t.Fatal("a decoded record must re-ship the bytes it came as")
	}
	rows, err := readDeltas(again)
	if want := []string{"flag/0: -2 ", "link/2: 1 s1:a|s1:b|"}; err != nil || !reflect.DeepEqual(rows, want) {
		t.Fatalf("deltas = %q, %v; want %q", rows, err, want)
	}
	// A format-1 record has no delta section; a commit with no net change
	// has an empty one.
	if script, _ := DecodeCommitRecord([]byte{formatScript, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, '+'}); script.HasDeltas() {
		t.Fatal("a script record claims to carry deltas")
	}
	empty, err := EncodeCommitRecord(8, nil, nil, 0, nil)
	if rows, rerr := readDeltas(empty); err != nil || rerr != nil || len(rows) != 0 || !empty.HasDeltas() {
		t.Fatalf("empty commit: %+v, %v, rows %q, %v", empty, err, rows, rerr)
	}
	if _, ok := again.Program(); ok {
		t.Fatal("an update's record claims to carry a program")
	}
}

// A rule edit's record (format 3) decodes to the record it was cut as,
// hands back its program, engine byte and deltas, and re-ships its bytes;
// an edit that leaves no rule still carries its (empty) program.
func TestCommitRecordEditRoundTrip(t *testing.T) {
	rec := editRecord(t)
	again, err := DecodeCommitRecord(rec.Payload)
	if err != nil || !reflect.DeepEqual(again, rec) {
		t.Fatalf("decode = %+v, %v; want %+v", again, err, rec)
	}
	if src, err := readProgram(again); err != nil || src != "p(X) :- q(X)." {
		t.Fatalf("program = %q, %v", src, err)
	}
	rows, err := readDeltas(again)
	if want := []string{"p/1: 1 s1:a|"}; err != nil || again.Engine() != 0x08 || !reflect.DeepEqual(rows, want) {
		t.Fatalf("engine %#x, deltas %q, %v; want 0x08 and %q", again.Engine(), rows, err, want)
	}
	if framed, _ := again.AppendTo(nil); !bytes.Equal(framed, rec.Payload) {
		t.Fatal("a decoded edit record must re-ship the bytes it came as")
	}
	none := ""
	empty, err := EncodeCommitRecord(10, nil, &none, 0x08, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src, ok := empty.Program(); !ok || src != "" || empty.Payload[0] != formatEdit {
		t.Fatalf("an edit leaving no rule: program %q, %v, format %d", src, ok, empty.Payload[0])
	}
}

// malformedDeltaPayloads are format-2 payloads damaged behind a valid
// checksum: each must read as malformed — never panic, never size an
// allocation from a length the bytes do not back.
func malformedDeltaPayloads(t testing.TB) map[string][]byte {
	rec := deltaRecord(t)
	link := bytes.Index(rec.Payload, []byte("link")) // name | arity u16 | nrows u32 | count | key
	patch := func(off int, b ...byte) []byte {
		p := append([]byte(nil), rec.Payload...)
		copy(p[off:], b)
		return p
	}
	return map[string][]byte{
		"truncated delta section":             rec.Payload[:len(rec.Payload)-4],
		"truncated section header":            rec.Payload[:link+5],
		"nrows larger than the bytes present": patch(link+6, 0xff, 0xff, 0xff, 0xff),
		"arity larger than the key":           patch(link+4, 0, 3),
		"arity smaller than the key":          patch(link+4, 0, 1),
		"count 0":                             patch(link+10, 0),
		"name longer than the record":         patch(link-2, 0xff, 0xff),
	}
}

// malformedEditPayloads are format-3 payloads cut or damaged in their
// program section behind a valid checksum: the program is framed by its
// length and the engine byte still follows it, so the decoder refuses
// each.
func malformedEditPayloads(t testing.TB) map[string][]byte {
	rec := editRecord(t)
	past := append([]byte(nil), rec.Payload...)
	binary.BigEndian.PutUint32(past[rec.program-4:], 0xffffffff)
	return map[string][]byte{
		"truncated program length":        rec.Payload[:rec.program-2],
		"program length past the payload": past,
		"truncated in the program":        rec.Payload[:rec.program+5],
		"no engine byte":                  rec.Payload[:rec.deltas-1],
	}
}

func TestDeltaReaderRefusals(t *testing.T) {
	for name, payload := range malformedDeltaPayloads(t) {
		rec, err := DecodeCommitRecord(payload)
		if err != nil {
			t.Fatalf("%s: the header must still decode: %v", name, err)
		}
		if rows, err := readDeltas(rec); !errors.Is(err, errMalformedRecord) {
			t.Errorf("%s: read %q, %v; want errMalformedRecord", name, rows, err)
		}
	}
}

func TestDecodeCommitRecordRefusals(t *testing.T) {
	// Truncations of the current format are a writer bug ...
	for name, payload := range map[string][]byte{
		"format byte only": {formatScript},
		"truncated count":  {formatScript, 0, 0, 0, 0, 0, 0, 0, 1, 0},
		"truncated klen":   {formatScript, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 1, 'a'},
		"truncated key":    {formatScript, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 9, 'a'},
		"no engine byte":   {formatDeltas, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
	} {
		if _, err := DecodeCommitRecord(payload); !errors.Is(err, errMalformedRecord) {
			t.Errorf("%s: decode = %v, want errMalformedRecord", name, err)
		}
	}
	for name, payload := range malformedEditPayloads(t) {
		if _, err := DecodeCommitRecord(payload); !errors.Is(err, errMalformedRecord) {
			t.Errorf("edit, %s: decode = %v, want errMalformedRecord", name, err)
		}
	}
	// ... and anything that does not lead with the format byte is not
	// ours to read.
	for name, payload := range retiredPayloads {
		_, err := DecodeCommitRecord(payload)
		var unknown *UnknownFormatError
		if !errors.As(err, &unknown) || unknown.What != "WAL" {
			t.Errorf("%s: decode = %v, want *UnknownFormatError", name, err)
		}
	}
}

// retiredPayloads are the WAL payload framings earlier builds wrote.
var retiredPayloads = map[string][]byte{
	"bare script":       []byte("+p(1)."),
	"bare empty script": {},
	"K-only":            append([]byte{0, 'K', 0, 1, 0, 2, 'k', '1'}, "+p(1)."...),
	"V over bare":       append([]byte{0, 'V', 0, 0, 0, 0, 0, 0, 0, 2}, "+p(1)."...),
	"V over K":          append([]byte{0, 'V', 0, 0, 0, 0, 0, 0, 0, 2, 0, 'K', 0, 1, 0, 2, 'k', '1'}, "+p(1)."...),
}

// Every retired shape is refused with the typed error — by recovery and
// by the backfill scan, which share one scanner — and a refused open
// leaves the directory byte-for-byte as it found it: no truncate, no
// rename, no "repair".
func TestRetiredFormatsRefusedUntouched(t *testing.T) {
	requireRefused := func(t *testing.T, dir string) {
		t.Helper()
		before := dirImage(t, dir)
		_, err := OpenStore(dir, StoreOptions{RepairCorruptWAL: true})
		var unknown *UnknownFormatError
		if !errors.As(err, &unknown) {
			t.Fatalf("OpenStore = %v, want *UnknownFormatError", err)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("a refused open changed the directory:\nbefore %q\nafter  %q", before, after)
		}
	}
	for name, payload := range retiredPayloads {
		t.Run("wal/"+name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, StoreOptions{})
			checkpoint(t, s, "prog.")
			appendRec(t, s, 2, "+p(0).")
			if _, err := s.TailRecords(0); err != nil {
				t.Fatal(err)
			}
			// An earlier build's record lands behind ours (same epoch, valid
			// checksum): the live backfill scan refuses it ...
			f, err := os.OpenFile(walPath(dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(rawWALRecord(1, 2, payload)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			var unknown *UnknownFormatError
			if _, err := s.TailRecords(0); !errors.As(err, &unknown) {
				t.Fatalf("TailRecords = %v, want *UnknownFormatError", err)
			}
			s.Close()
			// ... and so does recovery.
			requireRefused(t, dir)
		})
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "snapshot-v3.gob"))
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("snapshot/v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, StoreOptions{})
			checkpoint(t, s, "prog.")
			s.Close()
			// The newest checkpoint is an intact file in a retired layout
			// (3 as the previous build wrote it); falling back to epoch 1
			// would silently drop what it holds.
			old := v3
			if version < 3 {
				old = gobSnapshot(t, version)
			}
			if err := os.WriteFile(filepath.Join(dir, snapName(2)), old, 0o644); err != nil {
				t.Fatal(err)
			}
			requireRefused(t, dir)
		})
	}
}

// A snapshot whose footer is damaged is as corrupt as one whose body
// is: flipping a bit of the magic must not turn the check off and let a
// flipped count through. The store sets the file aside and falls back
// one epoch.
func TestStoreDamagedSnapshotFooterFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	checkpoint(t, s, "v1.")
	checkpoint(t, s, "v2.")
	s.Close()
	path := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One bit of the footer magic, plus a body byte gob decodes without
	// complaint (a letter of the program text): with the check switched
	// off, the file would load as a valid epoch-2 snapshot of "v0.".
	data[len(data)-snapFooterSize] ^= 0x01
	at := bytes.Index(data, []byte("v2."))
	if at < 0 {
		t.Fatal("program text not found in the snapshot body")
	}
	data[at+1] ^= 0x02
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if info := s2.Recovery(); info.Epoch != 1 || info.BadSnapshots != 1 {
		t.Fatalf("info: %+v", info)
	}
	if st, ok := s2.Snapshot(); !ok || st.Program != "v1." {
		t.Fatalf("must fall back to snapshot 1 (prog=%q ok=%v)", st.Program, ok)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("the damaged snapshot must be set aside: %v", err)
	}
}

func TestStoreKeyedRecordsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	want := []CommitRecord{
		{Version: 2, Script: "+p(1).", Keys: []string{"key-1"}},
		{Version: 3, Script: "+p(2)."}, // keyless, interleaved
		{Version: 4, Script: "+p(3). +p(4).", Keys: []string{"key-3a", "key-3b"}},
	}
	for _, r := range want {
		appendRec(t, s, r.Version, r.Script, r.Keys...)
	}
	// The live backfill scan and recovery read the same records.
	tail, err := s.TailRecords(2)
	if err != nil || !reflect.DeepEqual(sansPayload(tail), want[1:]) {
		t.Fatalf("TailRecords(2) = %+v, %v", tail, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := sansPayload(s2.Records()); !reflect.DeepEqual(got, want) {
		t.Fatalf("records: %+v", got)
	}
}

// sansPayload drops the encoded bytes decoded records keep, leaving the
// fields a hand-built record has.
func sansPayload(recs []CommitRecord) []CommitRecord {
	out := append([]CommitRecord(nil), recs...)
	for i := range out {
		out[i].Payload = nil
	}
	return out
}

// A bulk commit's grown render buffer is dropped, not pooled: the small
// commits that reuse pooled buffers would otherwise keep it live.
func TestRecordScratchDropsBulkBuffers(t *testing.T) {
	bulk := relation.New(1)
	for i := int64(0); bulk.Len() < MaxScratch/4; i++ {
		bulk.Add(value.T(i), 1)
	}
	if _, err := EncodeCommitRecord(2, nil, nil, 0, map[string]*relation.Relation{"p": bulk}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if b := recordScratch.Get().(*[]byte); cap(*b) > MaxScratch {
			t.Fatalf("the pool holds a %d-byte buffer (cap %d)", cap(*b), MaxScratch)
		}
	}
}
