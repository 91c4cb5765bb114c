package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ivm"
	"ivm/internal/storage"
)

// handleTrace serves GET /v1/trace?version=N, the ivm.ApplyTrace of version
// N from the views' history: 404 above its newest, 410 below its oldest
// or once the history shed it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseUint(r.URL.Query().Get("version"), 10, 64)
	h := s.v.History()
	lo, hi, _ := h.Bounds()
	switch ev, ok := h.At(n); {
	case err != nil || n == 0:
		writeError(w, http.StatusBadRequest, "invalid version %q", r.URL.Query().Get("version"))
	case ok && ev.Trace != nil:
		writeJSON(w, http.StatusOK, ev.Trace)
	case n > hi:
		writeError(w, http.StatusNotFound, "version %d is not published; the newest is %d", n, hi)
	default:
		writeError(w, http.StatusGone, "version %d's trace is not in the history, which holds the versions after %d through %d", n, lo, hi)
	}
}

// handleReplicate serves GET /v1/replicate: the resumable replication
// stream a follower tails. The response is a raw sequence of framed
// replication records (see internal/storage repl.go): 'D' records ship
// commit records in version order — byte for byte the payload the WAL
// holds for that commit — 'S' records ship a full state snapshot, 'H'
// heartbeats keep idle streams demonstrably alive.
//
// Resume protocol: ?from=<version> asks for every commit after that
// version. The handler serves it from a ladder of sources —
//
//  1. the views' history of recent commits (the common case);
//  2. the WAL, when the resume point has aged out of the history, or
//     the history shed the record, and the durable records still bridge
//     the gap contiguously;
//  3. a full state snapshot ('S'), when neither can prove a gapless
//     bridge — the follower replaces its state wholesale and tails on.
//
// A missing ?from= means "bootstrap me": the handler leads with an 'S'
// record. Every commit after that is a 'D' record, rule edits included
// (their records carry the program), so 'S' serves bootstrap and gap
// recovery only.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var cur uint64
	haveFrom := false
	if fs := r.URL.Query().Get("from"); fs != "" {
		n, err := strconv.ParseUint(fs, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid from %q", fs)
			return
		}
		cur, haveFrom = n, true
	}
	// ?epoch= is the follower's known fencing epoch. A follower ahead of
	// us has seen a newer leader — we were deposed while away. Refuse
	// loudly rather than feed it stale records it would reject anyway.
	if es := r.URL.Query().Get("epoch"); es != "" {
		e, err := strconv.ParseUint(es, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid epoch %q", es)
			return
		}
		if own := s.v.FenceEpoch(); e > own {
			s.reg.Counter("replica_fenced_total").Inc()
			writeError(w, http.StatusConflict,
				"fenced: follower is at epoch %d but this node leads epoch %d; it was deposed", e, own)
			return
		}
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}

	// Register this stream's shipped-version progress so a graceful
	// shutdown can wait for connected followers to receive the final
	// commits (Shutdown's replication grace) before cutting them off.
	progress := new(atomic.Uint64)
	s.mu.Lock()
	s.replStreams[progress] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.replStreams, progress)
		s.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	h := s.v.History()
	// frame is the stream's one record buffer, reused once w.Write has
	// returned, and dropped when a record (an 'S' state) leaves it larger
	// than storage.MaxScratch.
	var frame []byte
	send := func(rec storage.ReplRecord) bool {
		// Every record carries the node's current fencing epoch: the
		// follower's split-brain guard rides the stream itself.
		rec.Epoch = s.v.FenceEpoch()
		buf, err := storage.AppendReplRecord(frame[:0], rec)
		if err != nil {
			s.Info("ivmd: replicate: encoding record", slog.Uint64("record", rec.Version), slog.Any("err", err))
			return false
		}
		if _, err := w.Write(buf); err != nil {
			return false
		}
		if frame = buf; cap(buf) > storage.MaxScratch {
			frame = nil
		}
		flusher.Flush()
		return true
	}
	// sendDelta ships one commit record, stamped with when it was
	// published (0 once the history no longer traces it: the log keeps no
	// publish times).
	sendDelta := func(rec ivm.CommitRecord, publishedAt int64) bool {
		return send(storage.ReplRecord{Kind: storage.ReplKindDelta, UnixNano: publishedAt, CommitRecord: rec})
	}
	// sendState ships the current published state as an 'S' record and
	// returns its version — the follower's new resume point.
	sendState := func() (uint64, bool) {
		snap := s.v.Snapshot()
		payload, err := snap.ReplicaState().AppendTo(nil)
		if err != nil {
			s.Info("ivmd: replicate: encoding state", slog.Any("err", err))
			return 0, false
		}
		ok := send(storage.ReplRecord{
			Kind:         storage.ReplKindState,
			UnixNano:     time.Now().UnixNano(),
			CommitRecord: ivm.CommitRecord{Version: snap.Version()},
			State:        payload,
		})
		return snap.Version(), ok
	}
	// backfill bridges (cur, through] from the WAL; when the durable
	// records cannot prove a contiguous bridge (a checkpoint truncated
	// them, an append failed and left a hole, no store at all) it falls
	// back to a full state transfer. Returns the new resume point.
	backfill := func(through uint64) (uint64, bool) {
		recs, ok, err := s.v.CommittedRecordsAfter(cur)
		if ok && err == nil && len(recs) > 0 && recs[0].Version == cur+1 {
			contiguous := recs[len(recs)-1].Version >= through
			for i := 1; contiguous && i < len(recs); i++ {
				if recs[i].Version != recs[i-1].Version+1 {
					contiguous = false
				}
			}
			if contiguous {
				for _, rec := range recs {
					var at int64
					if e, ok := h.At(rec.Version); ok && e.Trace != nil {
						at = e.Trace.Published.UnixNano()
					}
					if !sendDelta(rec, at) {
						return 0, false
					}
				}
				return recs[len(recs)-1].Version, true
			}
		}
		if err != nil {
			s.Info("ivmd: replicate: WAL backfill", slog.Uint64("after", cur), slog.Any("err", err))
		}
		return sendState()
	}

	if !haveFrom {
		v, ok := sendState()
		if !ok {
			return
		}
		cur = v
	}

	hb := time.NewTicker(s.opts.ReplHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		progress.Store(cur)
		// Capture the wait channel before probing: an append landing
		// between Next and the select then wakes us instead of being
		// lost.
		ch := h.WaitCh()
		e, ok := h.Next(cur)
		if ok && e.Item.Trace != nil {
			if !sendDelta(e.Item.CommitRecord, e.Item.Trace.Published.UnixNano()) {
				return
			}
			cur = e.Version
			continue
		}
		// A shed entry, or a resume point below the history: backfill
		// through it.
		if ca, _, _ := h.Bounds(); ok || cur < ca {
			next, ok := backfill(max(ca, e.Version))
			if !ok {
				return
			}
			cur = next
			continue
		}
		// Caught up: sleep until the next commit, heartbeating so the
		// follower can tell a quiet primary from a dead connection.
		select {
		case <-ctx.Done():
			return
		case <-s.stop:
			return
		case <-ch:
		case <-hb.C:
			if !send(storage.ReplRecord{
				Kind:         storage.ReplKindHeartbeat,
				UnixNano:     time.Now().UnixNano(),
				CommitRecord: ivm.CommitRecord{Version: s.v.Snapshot().Version()},
			}) {
				return
			}
		}
	}
}
