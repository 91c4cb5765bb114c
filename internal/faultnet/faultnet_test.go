package faultnet

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startEcho runs a line-echo backend that counts the requests it fully
// received — the ground truth for "did the server see it".
func startEcho(t *testing.T) (addr string, received *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	received = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				for sc.Scan() {
					received.Add(1)
					fmt.Fprintf(c, "echo %s\n", sc.Text())
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), received
}

// roundTrip sends one line through addr and returns the echoed reply.
func roundTrip(addr, line string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		return "", err
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	return strings.TrimSpace(resp), err
}

func TestProxyPassThrough(t *testing.T) {
	addr, _ := startEcho(t)
	p, err := New(Options{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := roundTrip(p.Addr(), "hello")
	if err != nil || got != "echo hello" {
		t.Fatalf("pass-through = %q, %v", got, err)
	}
	st := p.Stats()
	if st.Conns != 1 || st.Faulted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxyDrop(t *testing.T) {
	addr, received := startEcho(t)
	p, err := New(Options{Target: addr, Fraction: 1, Modes: []Mode{Drop}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := roundTrip(p.Addr(), "lost"); err == nil {
		t.Fatal("dropped connection must error client-side")
	}
	if received.Load() != 0 {
		t.Fatal("a dropped request must never reach the backend")
	}
	if st := p.Stats(); st.Faulted != 1 || st.ByMode["drop"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProxySwallowAck(t *testing.T) {
	addr, received := startEcho(t)
	p, err := New(Options{Target: addr, Fraction: 1, Modes: []Mode{SwallowAck}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := roundTrip(p.Addr(), "committed"); err == nil {
		t.Fatal("swallowed ack must error client-side")
	}
	// The defining property: the backend processed the request even
	// though the client saw a failure.
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() != 1 {
		t.Fatalf("backend received %d requests, want 1", received.Load())
	}
}

func TestProxyResetMidBody(t *testing.T) {
	addr, _ := startEcho(t)
	p, err := New(Options{Target: addr, Fraction: 1, Modes: []Mode{ResetMidBody}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The reply "echo <11 bytes>\n" exceeds the 12-byte torn prefix, so
	// the read errors or comes back truncated without a newline.
	resp, err := roundTrip(p.Addr(), "abcdefghijk")
	if err == nil {
		t.Fatalf("torn response read must error, got %q", resp)
	}
}

func TestProxyDelayStillDelivers(t *testing.T) {
	addr, _ := startEcho(t)
	p, err := New(Options{Target: addr, Fraction: 1, Modes: []Mode{Delay}, Delay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	got, err := roundTrip(p.Addr(), "slow")
	if err != nil || got != "echo slow" {
		t.Fatalf("delayed roundtrip = %q, %v", got, err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delay mode finished in %v, want >= 30ms", elapsed)
	}
}

func TestProxySetTargetAndFraction(t *testing.T) {
	addrA, _ := startEcho(t)
	addrB, receivedB := startEcho(t)
	p, err := New(Options{Target: addrA, Fraction: 1, Modes: []Mode{Drop}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := roundTrip(p.Addr(), "x"); err == nil {
		t.Fatal("full-fraction drop must fail")
	}
	p.SetFraction(0)
	p.SetTarget(addrB)
	if got, err := roundTrip(p.Addr(), "y"); err != nil || got != "echo y" {
		t.Fatalf("after SetTarget/SetFraction(0): %q, %v", got, err)
	}
	if receivedB.Load() != 1 {
		t.Fatal("retargeted connection did not reach the new backend")
	}
}

func TestProxyDeterministicSeedAndLog(t *testing.T) {
	addr, _ := startEcho(t)
	logPath := filepath.Join(t.TempDir(), "faults.log")
	decisions := func(seed int64) []string {
		p, err := New(Options{Target: addr, Fraction: 0.5, Seed: seed, LogPath: logPath})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for i := 0; i < 20; i++ {
			roundTrip(p.Addr(), "probe") // errors expected on faulted conns
		}
		evs := p.Events()
		out := make([]string, len(evs))
		for i, e := range evs {
			// Strip the target (port differs across runs); keep the mode.
			out[i] = strings.Split(e, " target=")[0]
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Fatalf("same seed produced different fault sequences:\n%v\n%v", a, b)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "conn="); n != 40 {
		t.Fatalf("fault log has %d decision lines, want 40", n)
	}
}
