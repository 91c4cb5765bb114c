package server

// Write forwarding: a follower that receives an apply proxies it to the
// current leader instead of bouncing the client with a redirect. The
// Idempotency-Key rides the forwarded request end to end, so a client
// retry that lands on a different follower (or on the leader directly)
// still dedups; the leader's version-stamped ack is returned to the
// caller verbatim. The forwarded request also carries this follower's
// fencing epoch (X-Ivm-Epoch) — a deposed primary that somehow still
// answers the leader URL refuses it with 409 instead of committing a
// write the real cluster would never see.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
)

// forwardApply proxies one HTTP apply to the leader. Transport-level
// failures answer 503 with the current Leader-URL — the client retries
// there (or here again, after this follower re-resolves the leader).
func (s *Server) forwardApply(w http.ResponseWriter, r *http.Request, leader string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "apply body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	resp, err := s.proxyApply(r.Context(), leader, r.Header.Get("Content-Type"), r.Header.Get("Idempotency-Key"), body)
	if err != nil {
		s.cFwdErrors.Inc()
		s.setLeaderHeader(w)
		writeError(w, http.StatusServiceUnavailable, "forwarding apply to leader %s: %v", leader, err)
		return
	}
	defer resp.Body.Close()
	s.cForwarded.Inc()
	// Relay the leader's answer as-is: status, the headers clients act
	// on, and the body. A success is the leader's version-stamped ack;
	// an error keeps the leader's status so retry semantics are
	// identical to applying there directly.
	for _, h := range []string{"Content-Type", "Leader-URL", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyApply issues the forwarded POST /v1/apply to the leader,
// preserving the idempotency key and stamping this node's fencing
// epoch. The caller owns the response body.
func (s *Server) proxyApply(ctx context.Context, leader, contentType, key string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, leader+"/v1/apply", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType == "" {
		contentType = "text/plain"
	}
	req.Header.Set("Content-Type", contentType)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	req.Header.Set("X-Ivm-Epoch", strconv.FormatUint(s.v.FenceEpoch(), 10))
	return s.fwd.Do(req)
}
