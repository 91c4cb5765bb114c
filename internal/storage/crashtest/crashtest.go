// Package crashtest is a deterministic fault-injection harness for the
// managed store. Each case builds a store, acknowledges a known
// sequence of deltas, simulates a crash by mutating the raw files the
// way an ill-timed power cut would (torn appends, bit flips, lost
// renames, the checkpoint-vs-truncate window), reopens the store, and
// checks the recovered state tuple-and-count against a full
// recomputation of what recovery must preserve.
package crashtest

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"ivm"
)

const program = `
	hop(X,Y)     :- link(X,Z), link(Z,Y).
	tri_hop(X,Y) :- hop(X,Z), link(Z,Y).
`

const baseFacts = `link(a,b). link(b,c). link(b,e). link(a,d). link(d,c).`

var preds = []string{"link", "hop", "tri_hop"}

// scripts are the deltas every case acknowledges before its crash.
var scripts = []string{
	"+link(c,f).",
	"-link(a,b).",
	"+link(e,a). +link(f,b).",
	"-link(b,e). +link(a,b).",
}

// walHeader mirrors the store's WAL record header size
// (epoch u64 | seq u64 | len u32 | crc u32); recordFixed is the part of
// a keyless commit record payload that precedes its deltas
// (format u8 | version u64 | nkeys u16).
const (
	walHeader   = 24
	recordFixed = 11
)

// Result is the outcome of one crash case.
type Result struct {
	Name     string
	Fault    string // what the injected crash did to the files
	Recovery string // the store's recovery report after reopening
	OK       bool
	Detail   string // failure explanation when !OK
}

type crashCase struct {
	name  string
	fault string
	// prepare builds the store in dir, acknowledges deltas, and injects
	// the fault. It returns the scripts recovery must preserve.
	prepare func(dir string) (expect []string, err error)
	// reopen overrides how the case recovers after the fault (default:
	// plain open). The bit-flip case uses it to assert the default open
	// refuses mid-WAL corruption, then opts into repair.
	reopen func(dir string) (*ivm.Views, ivm.RecoveryInfo, error)
	// check validates the recovery report beyond state equality.
	check func(dir string, info ivm.RecoveryInfo) error
}

func walPath(dir string) string { return filepath.Join(dir, "wal.log") }

func open(dir string, opts ...ivm.Option) (*ivm.Views, ivm.RecoveryInfo, error) {
	return ivm.OpenStore(dir, func() (*ivm.Views, error) {
		db := ivm.NewDatabase()
		if err := db.Load(baseFacts); err != nil {
			return nil, err
		}
		return db.Materialize(program)
	}, opts...)
}

// seed initializes the store and acknowledges scripts[:n], returning
// the WAL contents at that point.
func seed(dir string, n int) ([]byte, error) {
	v, _, err := open(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range scripts[:n] {
		if _, err := v.ApplyScript(s); err != nil {
			v.Close()
			return nil, err
		}
	}
	wal, err := os.ReadFile(walPath(dir))
	if err != nil {
		v.Close()
		return nil, err
	}
	if err := v.Close(); err != nil {
		return nil, err
	}
	return wal, nil
}

func appendRaw(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func flipByte(path string, off int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 || off >= int64(len(data)) {
		return fmt.Errorf("flip offset %d out of range (file is %d bytes)", off, len(data))
	}
	data[off] ^= 0x40
	return os.WriteFile(path, data, 0o644)
}

// groundTruth recomputes the views from scratch: base facts plus the
// expected surviving scripts, under the Recompute strategy. It shares the
// engine with the store-backed instance, but none of what recovery runs:
// no commit-record fold, WAL replay or checkpoint load.
func groundTruth(expect []string) (*ivm.Views, error) {
	db := ivm.NewDatabase()
	if err := db.Load(baseFacts); err != nil {
		return nil, err
	}
	v, err := db.Materialize(program, ivm.WithStrategy(ivm.Recompute))
	if err != nil {
		return nil, err
	}
	for _, s := range expect {
		if _, err := v.ApplyScript(s); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// diffState returns "" when both views hold identical relations —
// every predicate, tuple and count — and a description otherwise.
func diffState(got, want *ivm.Views) string {
	for _, pred := range preds {
		g, w := got.Rows(pred), want.Rows(pred)
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d rows, want %d (got %v, want %v)", pred, len(g), len(w), g, w)
		}
		for i := range w {
			if !g[i].Tuple.Equal(w[i].Tuple) || g[i].Count != w[i].Count {
				return fmt.Sprintf("%s row %d: %v ×%d, want %v ×%d",
					pred, i, g[i].Tuple, g[i].Count, w[i].Tuple, w[i].Count)
			}
		}
	}
	return ""
}

var cases = []crashCase{
	{
		name:  "torn-header",
		fault: "crash mid-append left 3 bytes of a record header",
		prepare: func(dir string) ([]string, error) {
			if _, err := seed(dir, len(scripts)); err != nil {
				return nil, err
			}
			return scripts, appendRaw(walPath(dir), []byte{7, 7, 7})
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if !info.TornTail || info.Replayed != len(scripts) {
				return fmt.Errorf("want torn tail with %d replayed, got %+v", len(scripts), info)
			}
			return nil
		},
	},
	{
		name:  "torn-payload",
		fault: "crash mid-append left a full header but a truncated payload",
		prepare: func(dir string) ([]string, error) {
			if _, err := seed(dir, len(scripts)); err != nil {
				return nil, err
			}
			// A header promising 64 payload bytes, followed by only 5.
			hdr := make([]byte, walHeader)
			binary.BigEndian.PutUint64(hdr[0:], 1)  // epoch
			binary.BigEndian.PutUint64(hdr[8:], 99) // seq
			binary.BigEndian.PutUint32(hdr[16:], 64)
			return scripts, appendRaw(walPath(dir), append(hdr, 'x', 'y', 'z', 'z', 'y'))
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if !info.TornTail || info.Replayed != len(scripts) {
				return fmt.Errorf("want torn tail with %d replayed, got %+v", len(scripts), info)
			}
			return nil
		},
	},
	{
		name:  "bit-flip",
		fault: "storage corruption flipped a payload bit in the second WAL record",
		prepare: func(dir string) ([]string, error) {
			wal, err := seed(dir, len(scripts))
			if err != nil {
				return nil, err
			}
			// Record 2 starts after record 1 (whose header says how long
			// it is); flip a byte inside its deltas. Records after the
			// corrupt one must not be fed to the engine, so only
			// scripts[0] survives.
			off := int64(walHeader) + int64(binary.BigEndian.Uint32(wal[16:])) + walHeader + recordFixed + 1
			return scripts[:1], flipByte(walPath(dir), off)
		},
		reopen: func(dir string) (*ivm.Views, ivm.RecoveryInfo, error) {
			// Acknowledged records sit behind the corruption, so the
			// default open must refuse rather than silently discard them.
			if v, _, err := open(dir); err == nil {
				v.Close()
				return nil, ivm.RecoveryInfo{}, fmt.Errorf("recovery must refuse mid-WAL corruption without the repair opt-in")
			}
			return open(dir, ivm.WithWALRepair())
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if info.CorruptRecords != 1 || info.Replayed != 1 {
				return fmt.Errorf("want 1 corrupt record after 1 replayed, got %+v", info)
			}
			return nil
		},
	},
	{
		name:  "partial-rename",
		fault: "crash mid-checkpoint left a half-written snapshot temp file",
		prepare: func(dir string) ([]string, error) {
			if _, err := seed(dir, len(scripts)); err != nil {
				return nil, err
			}
			garbage := []byte("half a gob stream")
			return scripts, os.WriteFile(filepath.Join(dir, "snapshot-2.gob.tmp"), garbage, 0o644)
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if info.Replayed != len(scripts) || info.BadSnapshots != 0 {
				return fmt.Errorf("temp file must be ignored, got %+v", info)
			}
			if _, err := os.Stat(filepath.Join(dir, "snapshot-2.gob.tmp")); !os.IsNotExist(err) {
				return fmt.Errorf("recovery must remove the stale temp file")
			}
			return nil
		},
	},
	{
		name:  "checkpoint-truncate-window",
		fault: "crash after the checkpoint rename but before the WAL truncate",
		prepare: func(dir string) ([]string, error) {
			wal, err := seed(dir, len(scripts))
			if err != nil {
				return nil, err
			}
			v, _, err := open(dir)
			if err != nil {
				return nil, err
			}
			if err := v.Sync(); err != nil { // checkpoint: scripts now in snapshot
				v.Close()
				return nil, err
			}
			if err := v.Close(); err != nil {
				return nil, err
			}
			// Resurrect the pre-checkpoint WAL: exactly what the disk
			// holds if the truncate never hit the platter.
			return scripts, os.WriteFile(walPath(dir), wal, 0o644)
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if info.SkippedStale != len(scripts) || info.Replayed != 0 {
				return fmt.Errorf("stale records must be skipped, not double-applied: %+v", info)
			}
			return nil
		},
	},
	{
		name:  "lost-snapshot-rename",
		fault: "crash where the checkpoint rename never became durable",
		prepare: func(dir string) ([]string, error) {
			wal, err := seed(dir, len(scripts))
			if err != nil {
				return nil, err
			}
			v, _, err := open(dir)
			if err != nil {
				return nil, err
			}
			if err := v.Sync(); err != nil {
				v.Close()
				return nil, err
			}
			if err := v.Close(); err != nil {
				return nil, err
			}
			// Without the directory fsync, the rename and the truncate
			// can both vanish: drop snapshot-2 and restore the old WAL.
			if err := os.Remove(filepath.Join(dir, "snapshot-2.gob")); err != nil {
				return nil, err
			}
			return scripts, os.WriteFile(walPath(dir), wal, 0o644)
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if info.Epoch != 1 || info.Replayed != len(scripts) {
				return fmt.Errorf("want fallback to epoch 1 replaying %d, got %+v", len(scripts), info)
			}
			return nil
		},
	},
	{
		name:  "snapshot-bit-flip",
		fault: "storage corruption inside the newest snapshot file",
		prepare: func(dir string) ([]string, error) {
			wal, err := seed(dir, len(scripts))
			if err != nil {
				return nil, err
			}
			v, _, err := open(dir)
			if err != nil {
				return nil, err
			}
			if err := v.Sync(); err != nil {
				v.Close()
				return nil, err
			}
			if err := v.Close(); err != nil {
				return nil, err
			}
			if err := flipByte(filepath.Join(dir, "snapshot-2.gob"), 40); err != nil {
				return nil, err
			}
			// The old WAL still holds every delta for the epoch-1
			// snapshot recovery falls back to.
			return scripts, os.WriteFile(walPath(dir), wal, 0o644)
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if info.BadSnapshots != 1 || info.Epoch != 1 || info.Replayed != len(scripts) {
				return fmt.Errorf("want fallback past 1 bad snapshot, got %+v", info)
			}
			return nil
		},
	},
}

func init() {
	cases = append(cases, crashCase{
		name:  "idempotent-retry-after-crash",
		fault: "crash between commit and ack; the client retries its idempotency key after recovery",
		prepare: func(dir string) ([]string, error) {
			v, _, err := open(dir)
			if err != nil {
				return nil, err
			}
			for i, s := range scripts {
				u, err := ivm.ParseUpdate(s)
				if err == nil {
					_, _, err = v.ApplyIdempotent(fmt.Sprintf("crash-key-%d", i), u)
				}
				if err != nil {
					v.Close()
					return nil, err
				}
			}
			// Close the WAL without a checkpoint: recovery must replay
			// every keyed record and re-seed the dedup window from them.
			return scripts, v.Close()
		},
		reopen: func(dir string) (*ivm.Views, ivm.RecoveryInfo, error) {
			v, info, err := open(dir)
			if err != nil {
				return nil, info, err
			}
			// The retry of an acked-but-unacknowledged apply. Its script
			// ("-link(a,b).") would SUCCEED if re-applied — link(a,b) was
			// re-added by a later script — so a dedup failure here is not
			// an error but silent state corruption, which diffState
			// catches; the deduped flag is asserted as well.
			u, err := ivm.ParseUpdate(scripts[1])
			if err != nil {
				v.Close()
				return nil, info, err
			}
			cs, deduped, err := v.ApplyIdempotent("crash-key-1", u)
			if err != nil {
				v.Close()
				return nil, info, fmt.Errorf("post-recovery retry: %w", err)
			}
			if !deduped {
				v.Close()
				return nil, info, fmt.Errorf("post-recovery retry was re-applied, not deduped")
			}
			if cs.Version() == 0 {
				v.Close()
				return nil, info, fmt.Errorf("deduped retry must carry the replayed committed version")
			}
			return v, info, nil
		},
		check: func(dir string, info ivm.RecoveryInfo) error {
			if info.Replayed != len(scripts) {
				return fmt.Errorf("want %d keyed records replayed, got %+v", len(scripts), info)
			}
			return nil
		},
	})
}

// Run executes every crash case in its own temp directory.
func Run() []Result {
	results := make([]Result, 0, len(cases))
	for _, c := range cases {
		results = append(results, runCase(c))
	}
	return results
}

func runCase(c crashCase) (res Result) {
	res = Result{Name: c.name, Fault: c.fault}
	dir, err := os.MkdirTemp("", "ivm-crash-"+c.name+"-*")
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	defer os.RemoveAll(dir)

	expect, err := c.prepare(dir)
	if err != nil {
		res.Detail = "prepare: " + err.Error()
		return res
	}
	reopen := c.reopen
	if reopen == nil {
		reopen = func(dir string) (*ivm.Views, ivm.RecoveryInfo, error) { return open(dir) }
	}
	v, info, err := reopen(dir)
	if err != nil {
		res.Detail = "recovery: " + err.Error()
		return res
	}
	defer v.Close()
	res.Recovery = info.String()
	if info.Initialized {
		res.Detail = "recovery re-initialized instead of loading a snapshot"
		return res
	}
	want, err := groundTruth(expect)
	if err != nil {
		res.Detail = "ground truth: " + err.Error()
		return res
	}
	if d := diffState(v, want); d != "" {
		res.Detail = "state diverged from recomputation: " + d
		return res
	}
	if c.check != nil {
		if err := c.check(dir, info); err != nil {
			res.Detail = err.Error()
			return res
		}
	}
	res.OK = true
	return res
}
