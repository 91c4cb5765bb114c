package storage

// Store is the managed crash-recovery layer: a directory of
// snapshot-<epoch>.gob checkpoints plus one checksummed, epoch-stamped
// write-ahead log (wal.log). The durability protocol:
//
//   - AppendRecord writes {epoch, seq, len, crc32c, payload} — the
//     payload is one commit record (record.go) — in a single write, and
//     WaitDurable fsyncs through the last record written, so appends
//     followed by their waits cost one fsync. A failed fsync is sticky:
//     the store takes no more writes until it is reopened.
//   - CheckpointAt writes the snapshot to a temp file, fsyncs it, renames
//     it into place, fsyncs the directory, bumps the epoch, and only
//     then truncates (and fsyncs) the WAL. A crash anywhere in that
//     sequence leaves either the old snapshot + a replayable WAL, or
//     the new snapshot + stale-epoch WAL records that recovery skips —
//     never a double apply.
//   - OpenStore recovers: it loads the newest valid snapshot, then
//     scans the WAL, replaying only records stamped with the snapshot's
//     epoch; stale records are skipped, a torn tail is discarded, a
//     checksum-failing record stops the scan instead of feeding garbage
//     to the parser, and an intact record or snapshot in a layout this
//     build does not write is refused with an *UnknownFormatError, the
//     directory left exactly as found.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ivm/internal/metrics"
)

const (
	walFileName = "wal.log"
	snapPrefix  = "snapshot-"
	snapSuffix  = ".gob"
)

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("storage: store is closed")

// StoreOptions tunes a Store.
type StoreOptions struct {
	// RepairCorruptWAL lets recovery discard a mid-log corrupt record
	// and everything after it, keeping the valid prefix. Off by default:
	// the discarded suffix holds acknowledged (fsynced) appends, so
	// OpenStore instead fails with a *CorruptWALError and leaves the
	// file untouched for inspection. Torn tails — records a crash cut
	// short, never acknowledged — are always trimmed silently.
	RepairCorruptWAL bool
}

// RecoveryInfo describes what OpenStore found on disk.
type RecoveryInfo struct {
	// Epoch of the snapshot recovery started from (0 when the store was
	// empty).
	Epoch uint64
	// HasSnapshot reports whether any valid snapshot was found.
	HasSnapshot bool
	// Replayed counts WAL records from the current epoch handed to the
	// caller for replay.
	Replayed int
	// SkippedStale counts WAL records from older epochs — evidence of a
	// crash between a checkpoint rename and the WAL truncate.
	SkippedStale int
	// TornTail reports that an incomplete (or checksum-failing final)
	// record was discarded — a crash mid-append; the record was never
	// acknowledged.
	TornTail bool
	// CorruptRecords counts checksum failures with further data behind
	// them: in-place corruption, not a torn tail. Nonzero only under
	// StoreOptions.RepairCorruptWAL (the scan stops at the first one and
	// the tail after it is discarded); without the opt-in, OpenStore
	// fails with a *CorruptWALError instead.
	CorruptRecords int
	// BadSnapshots counts snapshot files that failed to decode and were
	// set aside (renamed to .corrupt).
	BadSnapshots int
	// DiscardedBytes is the length of the WAL tail dropped by recovery
	// (torn or corrupt).
	DiscardedBytes int64
}

// Store owns a crash-recovery directory. Appends and checkpoints are
// safe for concurrent callers, but a checkpoint must not race an append
// for the same logical state (callers serialize state mutation + append
// under their own lock, as ivm.Views does).
type Store struct {
	dir  string
	opts StoreOptions

	mu     sync.Mutex // serializes WAL writes, fsyncs, checkpoint, close
	wal    *os.File
	epoch  uint64
	seq    uint64 // the last record written
	synced uint64 // the last record an fsync (or a checkpoint) covered
	closed bool
	// failed is the first failed WAL fsync, wrapped; once set the store
	// writes and fsyncs nothing more.
	failed error

	// recovery results; immutable after OpenStore (records until handed
	// over by Records).
	info    RecoveryInfo
	snap    State
	records []CommitRecord

	// instruments; nil until AttachMetrics (nil instruments are no-ops).
	mAppends, mAppendBytes, mFsyncs, mCheckpoints *metrics.Counter
	hFsync, hCheckpoint                           *metrics.Histogram
}

func snapName(epoch uint64) string {
	return fmt.Sprintf("%s%d%s", snapPrefix, epoch, snapSuffix)
}

// snapEpoch parses a snapshot filename, returning (epoch, true) on match.
func snapEpoch(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	mid := name[len(snapPrefix) : len(name)-len(snapSuffix)]
	e, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// OpenStore opens (creating if needed) the store directory and runs
// recovery. The recovered snapshot and the commit records to replay on
// top of it are available via Snapshot and Records; Recovery reports
// what was found.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	if err := s.recoverSnapshots(); err != nil {
		return nil, err
	}
	if err := s.recoverWAL(); err != nil {
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}
	s.synced = s.seq
	return s, nil
}

// recoverSnapshots finds the newest decodable snapshot, sets aside
// corrupt ones, and removes temp-file leftovers of partial checkpoints.
func (s *Store) recoverSnapshots() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var epochs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A checkpoint died before its rename; the WAL still has
			// everything the snapshot would have contained.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if ep, ok := snapEpoch(name); ok {
			epochs = append(epochs, ep)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	for _, ep := range epochs {
		path := filepath.Join(s.dir, snapName(ep))
		st, err := loadFile(path)
		var unknown *UnknownFormatError
		if errors.As(err, &unknown) {
			// Intact, just not ours to read: falling back an epoch would
			// silently drop what it holds.
			return fmt.Errorf("%s: %w", path, err)
		}
		if err != nil {
			// Damaged snapshot: set it aside (keep the evidence out of
			// the next scan) and fall back to the previous epoch.
			s.info.BadSnapshots++
			os.Rename(path, path+".corrupt")
			continue
		}
		s.snap = st
		s.info.Epoch, s.info.HasSnapshot = ep, true
		s.epoch = ep
		break
	}
	return nil
}

// recoverWAL scans wal.log, collecting current-epoch records and
// truncating any torn or (under RepairCorruptWAL) corrupt tail so appends
// resume after the last valid record. Every refusal returns before the
// truncate, leaving the file untouched.
func (s *Store) recoverWAL() error {
	path := filepath.Join(s.dir, walFileName)
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = wal
	data, err := io.ReadAll(wal) // O_APPEND steers only the writes
	if err != nil {
		return err
	}
	end, err := scanWAL(data, func(offset int64, epoch, seq uint64, payload []byte) error {
		switch {
		case epoch == s.epoch:
			rec, err := DecodeCommitRecord(payload)
			if err != nil {
				return fmt.Errorf("%s record at offset %d: %w", path, offset, err)
			}
			s.records = append(s.records, rec)
			s.info.Replayed++
		case epoch < s.epoch:
			// Written before the snapshot we recovered from — the crash
			// hit between a checkpoint rename and the WAL truncate.
			s.info.SkippedStale++
		default:
			// A record newer than every readable snapshot: the snapshot
			// covering the records truncated at that checkpoint is gone.
			// Replaying onto older state would silently lose data.
			return fmt.Errorf("storage: wal record at offset %d has epoch %d but newest readable snapshot is epoch %d; state is not recoverable from this directory", offset, epoch, s.epoch)
		}
		if seq > s.seq {
			s.seq = seq
		}
		return nil
	})
	var corrupt *CorruptWALError
	switch {
	case err == nil:
	case errors.Is(err, ErrTornWAL):
		s.info.TornTail = true
	case errors.As(err, &corrupt):
		if !s.opts.RepairCorruptWAL {
			// Acknowledged records sit behind the damage; refuse to open
			// rather than silently destroy them.
			corrupt.Path = path
			return corrupt
		}
		s.info.CorruptRecords++
	default:
		return err
	}
	if size := int64(len(data)); end < size {
		s.info.DiscardedBytes = size - end
		if err := wal.Truncate(end); err != nil {
			return err
		}
		if err := wal.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Recovery reports what OpenStore found.
func (s *Store) Recovery() RecoveryInfo { return s.info }

// Snapshot hands over the recovered snapshot's state (ok=false when the
// store held none); the store keeps none of it.
func (s *Store) Snapshot() (st State, ok bool) {
	st, s.snap = s.snap, State{}
	return st, s.info.HasSnapshot
}

// Records hands over the commit records to replay on top of the
// snapshot, in append order. The store does not keep them: their
// payloads alias the WAL image recovery read, which would otherwise stay
// pinned for the store's life.
func (s *Store) Records() []CommitRecord {
	recs := s.records
	s.records = nil
	return recs
}

// TailRecords re-reads the live WAL and returns every current-epoch
// record stamped with a version greater than fromExcl, in append order.
// Replication backfill uses this when a follower's resume point has
// fallen out of the in-memory window but is still newer than the last
// checkpoint. The scan runs under the store lock (appends are fully
// written before the lock is released, so the file never holds a torn
// record mid-stream); whatever stops the scan short — torn, corrupt or
// undecodable — is returned, and the caller falls back to a full
// snapshot reset rather than serve a gap.
func (s *Store) TailRecords(fromExcl uint64) ([]CommitRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	data, err := os.ReadFile(filepath.Join(s.dir, walFileName))
	if err != nil {
		return nil, err
	}
	var out []CommitRecord
	_, err = scanWAL(data, func(_ int64, epoch, _ uint64, payload []byte) error {
		if epoch != s.epoch {
			return nil
		}
		rec, err := DecodeCommitRecord(payload)
		if err != nil {
			return err
		}
		if rec.Version > fromExcl {
			out = append(out, rec)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: wal tail scan: %w", err)
	}
	return out, nil
}

// Err reports why the store takes no more writes: ErrStoreClosed after
// Close, the first failed WAL fsync (wrapped) before it, nil while the
// store is healthy. Callers that mutate in-memory state before appending
// can pre-check so such a store rejects the whole operation instead of
// leaving memory ahead of the log (a concurrent Close can still land
// between the check and the append; the append then fails after the
// fact).
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errLocked()
}

func (s *Store) errLocked() error {
	if s.closed {
		return ErrStoreClosed
	}
	return s.failed
}

// Epoch returns the current checkpoint epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// AttachMetrics resolves the store's instruments against reg (nil-safe).
func (s *Store) AttachMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mAppends = reg.Counter("storage_wal_appends_total")
	s.mAppendBytes = reg.Counter("storage_wal_append_bytes_total")
	s.mFsyncs = reg.Counter("storage_wal_fsyncs_total")
	s.mCheckpoints = reg.Counter("storage_checkpoints_total")
	s.hFsync = reg.Histogram("storage_wal_fsync")
	s.hCheckpoint = reg.Histogram("storage_checkpoint")
}

// AppendVersionedAsync appends a format-1 (script) commit record and
// returns its WaitDurable. Kept for the layered benchmark's storage
// kernel, which compiles against it; nothing else writes format 1.
func (s *Store) AppendVersionedAsync(version uint64, script string, keys []string) (wait func() error, err error) {
	seq, err := s.AppendRecord(CommitRecord{Version: version, Keys: keys, Script: script})
	if err != nil {
		return nil, err
	}
	return func() error { return s.WaitDurable(seq) }, nil
}

// AppendRecord writes one commit record, establishing its position in
// the log, and returns its sequence number for WaitDurable. Its version
// is the snapshot version the record's apply publishes — the durable
// commit order recovery and replication backfill align on — and recovery
// hands its idempotency keys back via Records so dedup survives replay.
func (s *Store) AppendRecord(cr CommitRecord) (seq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.errLocked(); err != nil {
		return 0, err
	}
	rec, err := encodeWALRecord(s.epoch, s.seq+1, cr)
	if err != nil {
		return 0, err
	}
	s.seq++
	if _, err := s.wal.Write(rec); err != nil {
		return 0, err
	}
	s.mAppends.Inc()
	s.mAppendBytes.Add(int64(len(rec)))
	return s.seq, nil
}

// WaitDurable returns once record seq is durable: it fsyncs through the
// last record written, unless an earlier wait, checkpoint or Close
// already covered seq. So appends followed by their waits cost one
// fsync however many records they wrote.
func (s *Store) WaitDurable(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.synced {
		return nil
	}
	if s.failed != nil { // also when Close's own fsync failed
		return s.failed
	}
	start := time.Now()
	err := s.fsyncLocked()
	s.hFsync.Observe(time.Since(start))
	s.mFsyncs.Inc()
	return err
}

// fsyncLocked fsyncs the WAL through the last record written. A failure
// is sticky: the kernel may have dropped the pages it could not write,
// so a later fsync that succeeds would prove nothing about them.
func (s *Store) fsyncLocked() error {
	if err := s.wal.Sync(); err != nil {
		s.failed = fmt.Errorf("storage: WAL fsync failed, no more writes until the store is reopened: %w", err)
		return s.failed
	}
	s.synced = s.seq
	return nil
}

// CheckpointAt writes st as a new snapshot epoch and truncates the WAL.
// The sequence — fsync temp snapshot, rename, fsync directory, bump epoch,
// truncate + fsync WAL — guarantees a crash at any point recovers to
// exactly the checkpointed state plus later appends. st.Version is the
// version the state was published as, so recovery restarts the version
// counter where the previous process left it.
func (s *Store) CheckpointAt(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.errLocked(); err != nil {
		return err
	}
	start := time.Now()
	next := s.epoch + 1
	if err := saveFile(filepath.Join(s.dir, snapName(next)), st); err != nil {
		return err
	}
	s.epoch = next
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if err := s.fsyncLocked(); err != nil {
		return err
	}
	s.mCheckpoints.Inc()
	s.hCheckpoint.Observe(time.Since(start))
	s.pruneLocked()
	return nil
}

// pruneLocked removes snapshots older than the previous epoch (the
// previous one is kept as a fallback against a newest-snapshot decode
// failure). Best effort: pruning failures never fail a checkpoint.
func (s *Store) pruneLocked() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if ep, ok := snapEpoch(e.Name()); ok && ep+1 < s.epoch {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Close fsyncs the records no wait has covered yet — unless an fsync
// already failed, which it reports instead — and closes the WAL. Further
// operations fail with ErrStoreClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.failed
	if err == nil && s.synced < s.seq {
		err = s.fsyncLocked()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
