package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"

	"ivm"
	"ivm/client"
)

// The line protocol: a minimal text protocol for clients that want the
// engine without HTTP machinery (telnet/netcat debuggable, one request
// per line, one response per line):
//
//	apply +link(a,b). -link(b,c).   -> ok {"version":7,...}
//	apply @key1 +link(a,b).         -> ok {"version":7,...} — idempotent
//	                                   under key1; a retry answers
//	                                   {"version":7,"deduped":true}
//	query hop(a,X)                  -> ok {"version":7,"results":[...]}
//	rows hop                        -> ok {"version":7,"pred":"hop","rows":[...]}
//	count hop(a,c)                  -> ok {"version":7,"count":2,"has":true}
//	has hop(a,c)                    -> ok {"version":7,"count":2,"has":true}
//	version                         -> ok {"version":7}
//	ping                            -> ok {}
//	sub [pred ...]                  -> ok {"version":7,"hello":true}, then
//	                                   event {...} lines until the next
//	                                   input line, eviction (bye evicted),
//	                                   or shutdown (bye closed)
//	quit                            -> bye
//
// Errors answer `err <message>`. Responses after the status word are
// the same JSON documents the HTTP endpoints serve, so a line client
// shares the wire types. Sessions are HTTP-only.
func (s *Server) acceptLineConns(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.lineConns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveLineConn(conn)
	}
}

func (s *Server) serveLineConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.lineConns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.opts.Logf("ivmd: line conn %s connected", conn.RemoteAddr())
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), int(s.opts.MaxBodyBytes))
	out := bufio.NewWriter(conn)
	reply := func(status string, v any) bool {
		out.WriteString(status)
		if v != nil {
			out.WriteByte(' ')
			data, err := json.Marshal(v)
			if err != nil {
				return false
			}
			out.Write(data)
		}
		out.WriteByte('\n')
		return out.Flush() == nil
	}
	// replyEncoded answers with a document the wire encoder (or the
	// leader) already rendered, newline included.
	replyEncoded := func(status string, doc []byte) bool {
		out.WriteString(status)
		out.WriteByte(' ')
		out.Write(doc)
		return out.Flush() == nil
	}
	fail := func(format string, args ...any) bool {
		out.WriteString("err ")
		fmt.Fprintf(out, format, args...)
		out.WriteByte('\n')
		return out.Flush() == nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		var ok bool
		switch cmd {
		case "ping":
			ok = reply("ok", struct{}{})
		case "version":
			ok = reply("ok", map[string]uint64{"version": s.v.Snapshot().Version()})
		case "apply":
			var key string
			if strings.HasPrefix(rest, "@") {
				key, rest, _ = strings.Cut(rest[1:], " ")
				rest = strings.TrimSpace(rest)
				if key == "" {
					ok = fail("apply @ needs a key before the script")
					break
				}
				if len(key) > ivm.MaxIdempotencyKeyLen {
					ok = fail("apply: idempotency key of %d bytes exceeds the %d-byte limit", len(key), ivm.MaxIdempotencyKeyLen)
					break
				}
			}
			if rest == "" {
				ok = fail("apply needs a delta script")
				break
			}
			if leader := s.LeaderURL(); leader != "" {
				// Follower: forward to the leader, key and all, and relay
				// its ack — line clients get the same transparent
				// forwarding as HTTP ones.
				if !s.beginApply() {
					ok = fail("server is shutting down")
					break
				}
				ack, err := s.forwardApplyLine(leader, key, rest)
				s.applyWG.Done()
				if err != nil {
					ok = fail("%v", err)
					break
				}
				ok = replyEncoded("ok", ack)
				break
			}
			cs, deduped, err := s.v.ApplyScriptIdempotent(key, rest)
			if err != nil {
				ok = fail("apply: %v", err)
				break
			}
			if deduped {
				s.cDedups.Inc()
			}
			ok = replyEncoded("ok", s.hub.Ack(cs, deduped))
		case "query":
			if rest == "" {
				ok = fail("query needs a goal")
				break
			}
			snap := s.v.Snapshot()
			results, err := snap.Query(rest)
			if err != nil {
				ok = fail("query: %v", err)
				break
			}
			resp := client.QueryResponse{Version: snap.Version(), Results: []client.QueryResult{}}
			for _, qr := range results {
				r := client.QueryResult{Tuple: wireTuple(qr.Row.Tuple), Count: qr.Row.Count}
				if len(qr.Bindings) > 0 {
					r.Bindings = make(map[string]string, len(qr.Bindings))
					for name, val := range qr.Bindings {
						r.Bindings[name] = val.String()
					}
				}
				resp.Results = append(resp.Results, r)
			}
			ok = reply("ok", resp)
		case "rows":
			if rest == "" {
				ok = fail("rows needs a predicate")
				break
			}
			snap := s.v.Snapshot()
			ok = replyEncoded("ok", encodeRows(snap.Version(), rest, snap.Rows(rest)))
		case "count", "has":
			pred, vals, err := groundGoal(rest)
			if err != nil {
				ok = fail("%s: %v", cmd, err)
				break
			}
			snap := s.v.Snapshot()
			n := snap.Count(pred, vals...)
			ok = reply("ok", client.CountResponse{Version: snap.Version(), Count: n, Has: n > 0})
		case "sub":
			s.serveLineSub(conn, sc, out, strings.Fields(rest))
			return
		case "quit":
			reply("bye", nil)
			return
		default:
			ok = fail("unknown command %q", cmd)
		}
		if !ok {
			return
		}
	}
}

// serveLineSub switches the connection into streaming mode: events go
// out as `event {json}` lines until the client sends another line (or
// disconnects), the hub evicts the subscriber, or the server shuts
// down.
func (s *Server) serveLineSub(conn net.Conn, sc *bufio.Scanner, out *bufio.Writer, preds []string) {
	sub := s.hub.Subscribe(preds, s.opts.SubscriberBuffer)
	if sub == nil {
		out.WriteString("err server is shutting down\n")
		out.Flush()
		return
	}
	defer sub.Close()
	hello, _ := json.Marshal(client.Event{Version: s.v.Snapshot().Version(), Hello: true})
	out.WriteString("ok ")
	out.Write(hello)
	out.WriteByte('\n')
	if out.Flush() != nil {
		return
	}
	// Any further input (or EOF) ends the subscription.
	done := make(chan struct{})
	go func() {
		sc.Scan()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		case c, ok := <-sub.Events():
			if !ok {
				if sub.Evicted() {
					out.WriteString("bye evicted\n")
				} else {
					out.WriteString("bye closed\n")
				}
				out.Flush()
				return
			}
			out.WriteString("event ")
			out.Write(sub.Line(c))
			if out.Flush() != nil {
				return
			}
		}
	}
}
