package sched

import (
	"slices"
	"sync"
	"testing"
)

func TestWindowAppendNextBounds(t *testing.T) {
	w := NewWindow(4, 0, func(string) int { return 0 }, nil, nil)
	if _, _, ok := w.Bounds(); ok {
		t.Fatal("fresh window claims bounds")
	}
	if _, ok := w.Next(0); ok {
		t.Fatal("fresh window returned an entry")
	}

	w.Append(1, "a")
	w.Append(2, "b")
	w.Append(3, "c")
	ca, hi, ok := w.Bounds()
	if !ok || ca != 0 || hi != 3 {
		t.Fatalf("bounds: (%d, %d, %v)", ca, hi, ok)
	}
	for after, want := range map[uint64]string{0: "a", 1: "b", 2: "c"} {
		e, ok := w.Next(after)
		if !ok || e.Item != want || e.Version != after+1 {
			t.Fatalf("Next(%d) = %+v, %v", after, e, ok)
		}
	}
	if _, ok := w.Next(3); ok {
		t.Fatal("caught-up reader got an entry")
	}

	// Overflow evicts the oldest and raises the low-water mark.
	w.Append(4, "d")
	w.Append(5, "e")
	ca, hi, _ = w.Bounds()
	if ca != 1 || hi != 5 {
		t.Fatalf("bounds after eviction: (%d, %d)", ca, hi)
	}
	if _, ok := w.Next(0); ok {
		t.Fatal("reader below the window got an entry instead of a backfill signal")
	}
	if e, ok := w.Next(1); !ok || e.Item != "b" {
		t.Fatalf("Next(1) = %+v, %v", e, ok)
	}
}

func TestWindowSeed(t *testing.T) {
	w := NewWindow(2, 0, func(int) int { return 0 }, nil, nil)
	w.Seed(10)
	ca, hi, ok := w.Bounds()
	if !ok || ca != 10 || hi != 10 {
		t.Fatalf("bounds after seed: (%d, %d, %v)", ca, hi, ok)
	}
	// Seeding again is a no-op; appending continues from the seed.
	w.Seed(99)
	w.Append(11, 1)
	if e, ok := w.Next(10); !ok || e.Item != 1 {
		t.Fatalf("Next(10) = %+v, %v", e, ok)
	}
	if ca, hi, _ := w.Bounds(); ca != 10 || hi != 11 {
		t.Fatalf("bounds: (%d, %d)", ca, hi)
	}
}

func TestWindowRestartClears(t *testing.T) {
	w := NewWindow(8, 0, func(int) int { return 0 }, nil, nil)
	w.Append(5, 5)
	w.Append(6, 6)
	// A version at or below hi means the counter restarted: the window
	// must not splice histories.
	w.Append(3, 33)
	ca, hi, _ := w.Bounds()
	if ca != 2 || hi != 3 {
		t.Fatalf("bounds after restart: (%d, %d)", ca, hi)
	}
	if e, ok := w.Next(2); !ok || e.Item != 33 {
		t.Fatalf("Next(2) = %+v, %v", e, ok)
	}
	if _, ok := w.Next(1); ok {
		t.Fatal("pre-restart reader should be told to backfill")
	}
}

func TestWindowWaitCh(t *testing.T) {
	w := NewWindow(2, 0, func(int) int { return 0 }, nil, nil)
	ch := w.WaitCh()
	select {
	case <-ch:
		t.Fatal("wait channel closed before any append")
	default:
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	w.Append(1, 1)
	<-done
	// Each append hands out a fresh channel.
	select {
	case <-w.WaitCh():
		t.Fatal("the wait channel after an append is already closed")
	default:
	}
}

func TestWindowConcurrentReaders(t *testing.T) {
	w := NewWindow(64, 0, func(uint64) int { return 0 }, nil, nil)
	const last = 2000
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var after uint64
			for after < last {
				// Take the wait channel before probing: an append landing
				// between the probe and the wait then wakes us instead of
				// being lost.
				ch := w.WaitCh()
				e, ok := w.Next(after)
				if !ok {
					ca, _, bok := w.Bounds()
					if bok && after < ca {
						// Fell below the window: jump to the low-water mark,
						// as a real reader would after backfilling.
						after = ca
						continue
					}
					<-ch
					continue
				}
				if e.Item != e.Version {
					t.Errorf("entry %d carries item %d", e.Version, e.Item)
					return
				}
				after = e.Version
			}
		}()
	}
	for v := uint64(1); v <= last; v++ {
		w.Append(v, v)
	}
	wg.Wait()
}

// Given a size the window sheds the oldest items' bytes past its budget
// but keeps their entries, whose versions the count alone ages out; the
// newest item stays whole whatever its size, and drop sees every entry
// that leaves, a restart's too.
func TestWindowByteBudget(t *testing.T) {
	var dropped []uint64
	w := NewWindow(8, 100, func(b []byte) int { return len(b) }, func([]byte) []byte { return nil },
		func(e WindowEntry[[]byte]) { dropped = append(dropped, e.Version) })
	w.Seed(0)
	for v := uint64(1); v <= 4; v++ {
		w.Append(v, make([]byte, 30))
	}
	// 4 × 30 > 100: version 1's bytes went, its entry stayed.
	if ca, hi, _ := w.Bounds(); ca != 0 || hi != 4 {
		t.Fatalf("bounds = (%d, %d], want (0, 4]", ca, hi)
	}
	if e, ok := w.Next(0); !ok || e.Version != 1 || e.Item != nil {
		t.Fatalf("Next(0) = %+v, %v, want version 1 shed", e, ok)
	}
	if e, ok := w.Next(1); !ok || e.Version != 2 || len(e.Item) != 30 {
		t.Fatalf("Next(1) = %+v, %v", e, ok)
	}
	// One oversized entry sheds everything else but stays itself.
	if used := w.Append(5, make([]byte, 500)); used != 500 {
		t.Fatalf("an oversized entry leaves %d bytes held, want 500", used)
	}
	for v := uint64(1); v <= 4; v++ {
		if item, ok := w.At(v); !ok || item != nil {
			t.Fatalf("version %d: %d bytes held, in the window %v; want shed", v, len(item), ok)
		}
	}
	if item, ok := w.At(5); !ok || len(item) != 500 {
		t.Fatal("the newest entry must stay whole whatever its size")
	}
	// Small entries fit again once it is shed; the count bound evicts.
	for v := uint64(6); v <= 12; v++ {
		w.Append(v, make([]byte, 1))
	}
	if ca, hi, _ := w.Bounds(); ca != 4 || hi != 12 {
		t.Fatalf("bounds after refilling = (%d, %d], want (4, 12]", ca, hi)
	}
	if item, ok := w.At(5); !ok || item != nil {
		t.Fatal("the oversized entry must be shed once a newer one came")
	}
	if !slices.Equal(dropped, []uint64{1, 2, 3, 4}) {
		t.Fatalf("dropped %v, want [1 2 3 4]", dropped)
	}
	// A version restart drops every entry and clears the byte account.
	w.Append(3, make([]byte, 90))
	w.Append(4, make([]byte, 10))
	if item, ok := w.At(3); !ok || len(item) != 90 {
		t.Fatalf("after a restart version 3 holds %d bytes, %v: the byte account was not reset", len(item), ok)
	}
	if len(dropped) != 12 {
		t.Fatalf("a restart dropped %v", dropped[4:])
	}
}
