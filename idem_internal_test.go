package ivm

import (
	"fmt"
	"testing"
)

// The idempotency window in isolation: bounded LRU behaviour.

func TestIdemWindowLRU(t *testing.T) {
	w := newIdemWindow(3)
	for i := 0; i < 3; i++ {
		w.record(fmt.Sprintf("k%d", i), uint64(i+1))
	}
	if w.len() != 3 {
		t.Fatalf("len = %d, want 3", w.len())
	}
	// Touch k0 so k1 becomes the eviction victim.
	if ver, ok := w.lookup("k0"); !ok || ver != 1 {
		t.Fatalf("lookup(k0) = %v, %v", ver, ok)
	}
	w.record("k3", 4)
	if _, ok := w.lookup("k1"); ok {
		t.Fatal("k1 should have been evicted as least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := w.lookup(k); !ok {
			t.Fatalf("%s should still be in the window", k)
		}
	}
	// Re-recording an existing key refreshes in place, no growth.
	w.record("k2", 5)
	if w.len() != 3 {
		t.Fatalf("len after re-record = %d, want 3", w.len())
	}
	if ver, _ := w.lookup("k2"); ver != 5 {
		t.Fatalf("re-record did not replace the version")
	}
}

func TestIdemWindowDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -7} {
		w := newIdemWindow(capacity)
		if w.cap != DefaultIdempotencyWindow {
			t.Fatalf("newIdemWindow(%d).cap = %d, want %d", capacity, w.cap, DefaultIdempotencyWindow)
		}
	}
	w := newIdemWindow(1)
	w.record("a", 1)
	w.record("b", 2)
	if w.len() != 1 {
		t.Fatalf("len = %d, want 1", w.len())
	}
	if _, ok := w.lookup("a"); ok {
		t.Fatal("a should have been evicted by b in a capacity-1 window")
	}
}
