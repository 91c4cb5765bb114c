// Package faultnet is a TCP fault-injection proxy for exercising the
// exactly-once apply protocol (DESIGN.md §13): it sits between a client
// and a server and, on a configurable fraction of connections, injects
// the network failures a retrying client must survive — dropped
// connections, added latency, resets mid-response, and the nastiest
// one, swallowed acks: the request reaches the server and commits, but
// the response never reaches the client, making "committed" and "never
// arrived" indistinguishable without idempotency keys.
//
// The proxy is deterministic per seed: which connections are faulted,
// and how, replays identically for a given (seed, connection-order)
// pair. Every decision is appended to an in-memory event log (and
// optionally a file) so a failed chaos run can be diagnosed offline.
package faultnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// Mode is one injected failure shape.
type Mode int

const (
	// Pass relays the connection untouched.
	Pass Mode = iota
	// Drop resets the connection immediately on accept: the request is
	// never delivered (client retries against an un-committed apply).
	Drop
	// Delay holds the connection for Options.Delay before relaying it
	// cleanly — long enough to trip client dial/header timeouts when
	// configured tighter than the delay.
	Delay
	// ResetMidBody relays the request and the first few response bytes,
	// then resets: the client sees a torn response after the server
	// committed.
	ResetMidBody
	// SwallowAck relays the request, waits until the server has produced
	// its response (the apply is committed and acked server-side), then
	// resets the client side without relaying a byte of it — the
	// canonical lost-ack fault.
	SwallowAck
)

func (m Mode) String() string {
	switch m {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case ResetMidBody:
		return "reset-mid-body"
	case SwallowAck:
		return "swallow-ack"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures a Proxy.
type Options struct {
	// Target is the address the proxy forwards to (required; changeable
	// later with SetTarget, e.g. after restarting the server).
	Target string
	// Fraction of connections to fault, in [0, 1] (default 0 — pass
	// everything).
	Fraction float64
	// Modes are the fault shapes to draw from on a faulted connection
	// (default: Drop, Delay, ResetMidBody, SwallowAck).
	Modes []Mode
	// Delay is the hold time of the Delay mode (default 50ms).
	Delay time.Duration
	// Seed makes the fault sequence reproducible (default 1).
	Seed int64
	// LogPath, when non-empty, receives one line per connection decision
	// (appended; the file is created if missing).
	LogPath string
}

// Stats counts the proxy's decisions.
type Stats struct {
	Conns   int64
	Faulted int64
	ByMode  map[string]int64
}

// Proxy is the running fault injector. Start it with New, stop it with
// Close.
type Proxy struct {
	ln    net.Listener
	delay time.Duration

	mu       sync.Mutex
	target   string
	fraction float64
	modes    []Mode
	rng      *rand.Rand
	conns    int64
	faulted  int64
	byMode   map[string]int64
	events   []string
	logFile  *os.File
	closed   bool
}

// New starts a proxy listening on 127.0.0.1 (random port; see Addr).
func New(opts Options) (*Proxy, error) {
	if opts.Target == "" {
		return nil, fmt.Errorf("faultnet: Options.Target is required")
	}
	if len(opts.Modes) == 0 {
		opts.Modes = []Mode{Drop, Delay, ResetMidBody, SwallowAck}
	}
	if opts.Delay <= 0 {
		opts.Delay = 50 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{
		ln:       ln,
		delay:    opts.Delay,
		target:   opts.Target,
		fraction: opts.Fraction,
		modes:    opts.Modes,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		byMode:   make(map[string]int64),
	}
	if opts.LogPath != "" {
		f, err := os.OpenFile(opts.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("faultnet: fault log: %w", err)
		}
		p.logFile = f
	}
	go p.accept()
	return p, nil
}

// Addr is the proxy's listen address — point clients here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's listen address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetTarget repoints the proxy (new connections only) — used when the
// backend restarts on a new port mid-run.
func (p *Proxy) SetTarget(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.target = addr
}

// SetFraction changes the fault rate for new connections; 0 drains the
// run cleanly (used to let every applier finish once chaos is proven).
func (p *Proxy) SetFraction(f float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fraction = f
}

// Stats returns the decision counts so far.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	by := make(map[string]int64, len(p.byMode))
	for k, v := range p.byMode {
		by[k] = v
	}
	return Stats{Conns: p.conns, Faulted: p.faulted, ByMode: by}
}

// Events returns the decision log so far (one line per connection).
func (p *Proxy) Events() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.events...)
}

// Close stops accepting and closes the fault log. In-flight relays are
// left to finish on their own.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	f := p.logFile
	p.mu.Unlock()
	err := p.ln.Close()
	if f != nil {
		f.Close()
	}
	return err
}

func (p *Proxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		target, mode := p.decide()
		go p.serve(conn, target, mode)
	}
}

// decide picks the fault (or Pass) for one connection and logs it.
func (p *Proxy) decide() (target string, mode Mode) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conns++
	mode = Pass
	if p.rng.Float64() < p.fraction {
		mode = p.modes[p.rng.Intn(len(p.modes))]
	}
	if mode != Pass {
		p.faulted++
	}
	p.byMode[mode.String()]++
	line := fmt.Sprintf("conn=%d mode=%s target=%s", p.conns, mode, p.target)
	p.events = append(p.events, line)
	if p.logFile != nil {
		fmt.Fprintln(p.logFile, line)
	}
	return p.target, mode
}

// reset closes conn with an RST (SO_LINGER 0) rather than a clean FIN,
// so the peer sees ECONNRESET — the shape of a crashed middlebox.
func reset(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

func (p *Proxy) serve(client net.Conn, target string, mode Mode) {
	switch mode {
	case Drop:
		reset(client)
		return
	case Delay:
		time.Sleep(p.delay)
	}
	server, err := net.DialTimeout("tcp", target, 10*time.Second)
	if err != nil {
		reset(client)
		return
	}
	switch mode {
	case Pass, Delay:
		p.relay(client, server)
	case ResetMidBody:
		p.relayTornResponse(client, server, 12)
	case SwallowAck:
		p.relaySwallowedResponse(client, server)
	default:
		p.relay(client, server)
	}
}

// relay copies both directions until either side closes.
func (p *Proxy) relay(client, server net.Conn) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		io.Copy(server, client)
		// Request fully sent (or client gone): half-close toward the
		// server so it sees EOF but the response still flows back.
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	go func() {
		defer wg.Done()
		io.Copy(client, server)
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	wg.Wait()
	client.Close()
	server.Close()
}

// relayTornResponse forwards the request, then cuts the client off
// after n response bytes — a torn, unparseable ack.
func (p *Proxy) relayTornResponse(client, server net.Conn, n int64) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(server, client)
	}()
	io.CopyN(client, server, n)
	reset(client)
	server.Close()
	<-done
}

// relaySwallowedResponse forwards the request and drains the server's
// entire response without relaying any of it: the server has committed
// and acked, the client got nothing.
func (p *Proxy) relaySwallowedResponse(client, server net.Conn) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(server, client)
	}()
	// Wait for the first response byte — proof the server processed the
	// request — then cut the client off before any of it reaches them.
	// The server side is closed right after (not drained: the handler
	// has already committed; a torn write of the remaining ack bytes
	// changes nothing).
	var b [1]byte
	server.Read(b[:])
	reset(client)
	server.Close()
	<-done
}
