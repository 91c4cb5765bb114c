package server

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ivm"
)

// TestRequestLogOffAllocatesOnlyTheStatusWriter pins what one request
// through logMiddleware costs with no logger: the statusWriter it wraps
// the response in, and nothing for the record a disabled handler drops
// (a no-op printf-style hook boxed its arguments: 4 objects in all).
func TestRequestLogOffAllocatesOnlyTheStatusWriter(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := New(buildTestViews(t), Options{})
	h := s.logMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest(http.MethodPost, "/v1/apply", nil)
	req.Header.Set("Idempotency-Key", "k-1")
	w := httptest.NewRecorder()
	if got := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) }); got != 1 {
		t.Fatalf("a request through logMiddleware with no logger allocates %v objects, want 1 (its statusWriter)", got)
	}
}

// syncBuffer is a bytes.Buffer the server's goroutines may write to.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestShutdownLogsWhatItCheckpoints: a node with a store logs its
// checkpoint and the store's directory; one without — a follower, a
// memory-only primary — says it has no store to checkpoint.
func TestShutdownLogsWhatItCheckpoints(t *testing.T) {
	dir := t.TempDir()
	stored, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) { return buildTestViews(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v         *ivm.Views
		want, not string
	}{
		{buildTestViews(t), `msg="ivmd: shutdown: no store to checkpoint" version=1`, "checkpointing"},
		{stored, `msg="ivmd: shutdown: checkpointing store" dir=` + dir + " version=1", "no store"},
	} {
		var out syncBuffer
		srv := New(tc.v, Options{OwnViews: true, Logger: slog.New(slog.NewTextHandler(&out, nil))})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if log := out.String(); err != nil || !strings.Contains(log, tc.want) || strings.Contains(log, tc.not) {
			t.Errorf("shutdown: %v; the log should hold %s and not %q:\n%s", err, tc.want, tc.not, log)
		}
	}
}

// TestQuietLevelKeepsLifecycleRecords is what ivmd -quiet keeps: at Info
// the lifecycle records, stamped with version, epoch and role; at Debug
// also one record per request, with its status and Idempotency-Key.
func TestQuietLevelKeepsLifecycleRecords(t *testing.T) {
	for _, tc := range []struct {
		level    slog.Level
		requests bool
	}{{slog.LevelInfo, false}, {slog.LevelDebug, true}} {
		t.Run(tc.level.String(), func(t *testing.T) {
			var out syncBuffer
			logger := slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{Level: tc.level}))
			srv := New(buildTestViews(t), Options{OwnViews: true, Logger: logger})
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			if resp, _, body := postApply(t, srv.URL(), "k-42", "+link(c,d)."); resp.StatusCode != http.StatusOK {
				t.Fatalf("apply: %d %s", resp.StatusCode, body)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			log := out.String()
			for _, want := range []string{`msg="ivmd: serving HTTP"`, "version=1 epoch=1 leader=\"\" role=primary",
				`msg="ivmd: shutdown complete" version=2 epoch=1`} {
				if !strings.Contains(log, want) {
					t.Errorf("log lacks %s:\n%s", want, log)
				}
			}
			request := `msg="ivmd: request" method=POST path=/v1/apply status=200 took=`
			if got := strings.Contains(log, request) && strings.Contains(log, " key=k-42\n"); got != tc.requests {
				t.Errorf("request record with status=200 and key=k-42 logged: %v, want %v:\n%s", got, tc.requests, log)
			}
		})
	}
}
