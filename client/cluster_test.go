package client

// Cluster-aware pool tests: discovery from seeds via /v1/info, apply
// re-resolution on Leader-URL redirects and dead leaders, and the read
// fallback ladder under mixed failure modes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// clusterNode fakes one ivmd member: /v1/info reports its role, and
// applies/reads answer with canned outcomes that the test can reshape
// mid-flight (all fields behind mu).
type clusterNode struct {
	mu        sync.Mutex
	role      string // "primary" or "follower"
	epoch     uint64
	leaderURL string // advertised upstream when follower
	failApply int    // status to fail applies with; 0 = accept
	failRead  int    // status to fail reads with; 0 = answer
	applies   int
	reads     int
	infos     int // /v1/info probes answered
	url       string
}

func (n *clusterNode) server(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.infos++
		info := Info{Version: 1, Role: n.role, Epoch: n.epoch}
		if n.role == "follower" {
			info.LeaderURL = n.leaderURL
		}
		n.mu.Unlock()
		json.NewEncoder(w).Encode(info)
	})
	mux.HandleFunc("POST /v1/apply", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.applies++
		st, leader := n.failApply, n.leaderURL
		n.mu.Unlock()
		if st != 0 {
			if leader != "" {
				w.Header().Set("Leader-URL", leader)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(st)
			json.NewEncoder(w).Encode(map[string]string{"error": "canned apply failure"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"version": 7})
	})
	read := func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.reads++
		st, leader := n.failRead, n.leaderURL
		n.mu.Unlock()
		if st != 0 {
			if leader != "" {
				w.Header().Set("Leader-URL", leader)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(st)
			json.NewEncoder(w).Encode(map[string]string{"error": "canned read failure"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"version": 7})
	}
	mux.HandleFunc("GET /v1/query", read)
	mux.HandleFunc("GET /v1/rows", read)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	n.url = ts.URL
	return ts
}

func (n *clusterNode) set(f func(*clusterNode)) {
	n.mu.Lock()
	f(n)
	n.mu.Unlock()
}

func (n *clusterNode) counts() (applies, reads int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applies, n.reads
}

// TestClusterPoolDiscovery: seeds that name only followers still find
// the primary through the advertised leader_url hop, the highest-epoch
// primary wins, and followers become the read targets.
func TestClusterPoolDiscovery(t *testing.T) {
	oldPrimary := &clusterNode{role: "primary", epoch: 1}
	newPrimary := &clusterNode{role: "primary", epoch: 2}
	oldPrimary.server(t)
	newPrimary.server(t)
	f1 := &clusterNode{role: "follower", epoch: 2, leaderURL: newPrimary.url}
	f2 := &clusterNode{role: "follower", epoch: 1, leaderURL: oldPrimary.url}
	f1.server(t)
	f2.server(t)

	// Seeds are the two followers, in the order that probes the stale
	// one first; the pool must still land on the epoch-2 primary.
	pool, err := NewClusterPool(context.Background(), []string{f2.url, f1.url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Leader().BaseURL(); got != newPrimary.url {
		t.Fatalf("discovered leader %q, want the epoch-2 primary %q", got, newPrimary.url)
	}

	if _, err := pool.Apply(context.Background(), "+link(a,b)."); err != nil {
		t.Fatal(err)
	}
	if a, _ := newPrimary.counts(); a != 1 {
		t.Fatalf("apply did not land on the discovered primary (%d applies)", a)
	}
	// Reads stay on the followers.
	if _, err := pool.Rows(context.Background(), "link", ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, r1 := f1.counts(); r1 == 0 {
		if _, r2 := f2.counts(); r2 == 0 {
			t.Fatal("read did not land on a follower")
		}
	}

	// No reachable primary at all is a construction error.
	if _, err := NewClusterPool(context.Background(), []string{"http://127.0.0.1:1"}, nil); err == nil {
		t.Fatal("NewClusterPool succeeded with no reachable primary")
	}
}

// TestProbeLeaderRules: one rule a subtest. A node whose info names no
// leader is a primary, whatever its role says; a tie goes to the earlier
// candidate; a primary below the minimum epoch is no leader; a follower's
// leader_url is probed once however many name it.
func TestProbeLeaderRules(t *testing.T) {
	ctx := context.Background()
	t.Run("no leader named is a primary", func(t *testing.T) {
		bare := &clusterNode{} // a pre-cluster server reports no role
		bare.server(t)
		f := &clusterNode{role: "follower", epoch: 5, leaderURL: "http://127.0.0.1:1"}
		f.server(t)
		leader, followers, err := ProbeLeader(ctx, []string{f.url, bare.url}, nil, 0)
		if err != nil || leader != bare.url || len(followers) != 1 || followers[0] != f.url {
			t.Fatalf("leader %q, followers %v, err %v; want %q and [%s]", leader, followers, err, bare.url, f.url)
		}
	})
	t.Run("a tie goes to the earlier candidate", func(t *testing.T) {
		a, b := &clusterNode{role: "primary", epoch: 3}, &clusterNode{role: "primary", epoch: 3}
		a.server(t)
		b.server(t)
		for _, cands := range [][]string{{a.url, b.url}, {b.url, a.url}} {
			if leader, _, err := ProbeLeader(ctx, cands, nil, 0); err != nil || leader != cands[0] {
				t.Fatalf("candidates %v: leader %q (err %v), want the first", cands, leader, err)
			}
		}
	})
	t.Run("the minimum epoch", func(t *testing.T) {
		stale, fresh := &clusterNode{role: "primary", epoch: 1}, &clusterNode{role: "primary", epoch: 3}
		stale.server(t)
		fresh.server(t)
		if leader, _, err := ProbeLeader(ctx, []string{stale.url, fresh.url}, nil, 2); err != nil || leader != fresh.url {
			t.Fatalf("leader %q (err %v), want the epoch-3 primary", leader, err)
		}
		if leader, _, err := ProbeLeader(ctx, []string{stale.url, fresh.url}, nil, 4); err == nil {
			t.Fatalf("leader %q below the minimum epoch 4", leader)
		}
	})
	t.Run("a follower's leader is probed once", func(t *testing.T) {
		p := &clusterNode{role: "primary", epoch: 2}
		p.server(t)
		f1 := &clusterNode{role: "follower", epoch: 2, leaderURL: p.url}
		f2 := &clusterNode{role: "follower", epoch: 2, leaderURL: p.url + "/"}
		f1.server(t)
		f2.server(t)
		leader, followers, err := ProbeLeader(ctx, []string{f1.url, f2.url, p.url}, nil, 0)
		if err != nil || leader != p.url || len(followers) != 2 {
			t.Fatalf("leader %q, followers %v, err %v", leader, followers, err)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.infos != 1 {
			t.Fatalf("the leader two followers name was probed %d times, want once", p.infos)
		}
	})
}

// TestClusterPoolApplyFailover: an apply bounced with a Leader-URL
// retargets the pool and retries once; a dead leader triggers seed
// re-discovery. Either way the caller sees one successful ack.
func TestClusterPoolApplyFailover(t *testing.T) {
	promoted := &clusterNode{role: "primary", epoch: 2}
	promoted.server(t)

	t.Run("leader-url redirect", func(t *testing.T) {
		// The old leader was deposed back to follower: applies bounce
		// with 503 + Leader-URL naming its replacement.
		deposed := &clusterNode{role: "follower", epoch: 2, failApply: http.StatusServiceUnavailable}
		deposed.server(t)
		deposed.set(func(n *clusterNode) { n.leaderURL = promoted.url })

		pool := NewReadPool(deposed.url, nil, nil)
		res, err := pool.Apply(context.Background(), "+link(a,b).")
		if err != nil {
			t.Fatalf("apply did not follow the redirect: %v", err)
		}
		if res.Version != 7 {
			t.Fatalf("ack version %d, want the new leader's 7", res.Version)
		}
		if got := pool.Leader().BaseURL(); got != promoted.url {
			t.Fatalf("pool still points at %q, want %q", got, promoted.url)
		}
	})

	t.Run("dead leader, seed rediscovery", func(t *testing.T) {
		follower := &clusterNode{role: "follower", epoch: 2}
		follower.server(t)
		follower.set(func(n *clusterNode) { n.leaderURL = promoted.url })

		pool, err := NewClusterPool(context.Background(), []string{follower.url}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Point the pool at a dead leader, as if the primary crashed
		// after discovery; the next apply must re-discover via seeds.
		pool.setLeader("http://127.0.0.1:1")
		if _, err := pool.Apply(context.Background(), "+link(c,d)."); err != nil {
			t.Fatalf("apply did not re-discover the leader: %v", err)
		}
		if got := pool.Leader().BaseURL(); got != promoted.url {
			t.Fatalf("pool still points at %q, want %q", got, promoted.url)
		}
	})
}

// TestReadPoolMixedFailures drives one read per case through a pool
// whose single follower fails in a different way each time, checking
// the fallback ladder: which errors fall back, what the Fallbacks
// counter reads, and whether the pool's leader moved.
func TestReadPoolMixedFailures(t *testing.T) {
	cases := []struct {
		name        string
		followerURL string // overrides follower when set (dead endpoint)
		failRead    int    // follower's canned read failure
		hintLeader  bool   // follower names the live leader in the error
		deadLeader  bool   // pool's leader is unreachable
		wantErr     bool
		wantFall    uint64 // Fallbacks() after the read
		wantMoved   bool   // pool re-resolved to the hinted leader
	}{
		{name: "503 falls back", failRead: http.StatusServiceUnavailable, wantFall: 1},
		{name: "412 falls back", failRead: http.StatusPreconditionFailed, wantFall: 1},
		{name: "transport error falls back", followerURL: "http://127.0.0.1:1", wantFall: 1},
		{name: "400 surfaces", failRead: http.StatusBadRequest, wantErr: true, wantFall: 0},
		{name: "404 surfaces", failRead: http.StatusNotFound, wantErr: true, wantFall: 0},
		{
			name:       "dead leader chases the follower's hint",
			failRead:   http.StatusPreconditionFailed,
			hintLeader: true,
			deadLeader: true,
			wantFall:   1,
			wantMoved:  true,
		},
		{
			name:        "dead leader with no hint surfaces",
			followerURL: "http://127.0.0.1:1",
			deadLeader:  true,
			wantErr:     true,
			wantFall:    1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leader := &clusterNode{role: "primary", epoch: 2}
			leader.server(t)
			follower := &clusterNode{role: "follower", epoch: 2, failRead: tc.failRead}
			follower.server(t)
			if tc.hintLeader {
				follower.set(func(n *clusterNode) { n.leaderURL = leader.url })
			}

			leaderURL := leader.url
			if tc.deadLeader {
				leaderURL = "http://127.0.0.1:1"
			}
			followerURL := follower.url
			if tc.followerURL != "" {
				followerURL = tc.followerURL
			}
			pool := NewReadPool(leaderURL, []string{followerURL}, nil)

			_, err := pool.Query(context.Background(), "hop(X,Y)", ReadOptions{})
			if tc.wantErr != (err != nil) {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if got := pool.Fallbacks(); got != tc.wantFall {
				t.Fatalf("Fallbacks() = %d, want %d", got, tc.wantFall)
			}
			moved := pool.Leader().BaseURL() != leaderURL
			if moved != tc.wantMoved {
				t.Fatalf("leader moved = %v (now %q), want %v", moved, pool.Leader().BaseURL(), tc.wantMoved)
			}
			if tc.wantMoved {
				// The chased read must have been answered by the hinted
				// leader, not lost.
				if err != nil {
					t.Fatalf("hint chase still failed: %v", err)
				}
				if a, r := leader.counts(); a != 0 && r == 0 {
					t.Fatal("hinted leader never served the read")
				}
			}
		})
	}
}

// TestClusterPoolConcurrentReresolve hammers one pool from many
// goroutines while the leader moves, for the race detector's benefit.
func TestClusterPoolConcurrentReresolve(t *testing.T) {
	promoted := &clusterNode{role: "primary", epoch: 2}
	promoted.server(t)
	deposed := &clusterNode{role: "follower", epoch: 2, failApply: http.StatusServiceUnavailable}
	deposed.server(t)
	deposed.set(func(n *clusterNode) { n.leaderURL = promoted.url })

	pool := NewReadPool(deposed.url, []string{promoted.url}, nil)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := pool.Apply(context.Background(), fmt.Sprintf("+link(g%d,h%d).", i, j)); err != nil {
					failed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := failed.Load(); got != 0 {
		t.Fatalf("%d applies failed during concurrent re-resolution", got)
	}
	if got := pool.Leader().BaseURL(); got != promoted.url {
		t.Fatalf("pool settled on %q, want %q", got, promoted.url)
	}
}
