//go:build linux

package ivm_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// walWritesFail makes every write to the WAL of the store in dir fail as
// on a full disk — the open file's descriptor is pointed at /dev/full —
// until the returned func puts the file back. The directory may already
// be removed: the store keeps its WAL open.
func walWritesFail(t *testing.T, dir string) (restore func()) {
	return walRedirect(t, dir, "/dev/full")
}

// walSyncsFail makes every fsync of the WAL of the store in dir fail —
// the descriptor is pointed at /dev/null, where writes succeed and fsync
// returns EINVAL — until the returned func puts the file back.
func walSyncsFail(t *testing.T, dir string) (restore func()) {
	return walRedirect(t, dir, "/dev/null")
}

// walRedirect points the open descriptor on dir's wal.log at device.
func walRedirect(t *testing.T, dir, device string) (restore func()) {
	t.Helper()
	wal := filepath.Join(dir, "wal.log")
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	for _, e := range fds {
		target, err := os.Readlink("/proc/self/fd/" + e.Name())
		if err != nil || strings.TrimSuffix(target, " (deleted)") != wal {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		dev, err := os.OpenFile(device, os.O_WRONLY, 0)
		if err != nil {
			t.Skipf("no %s: %v", device, err)
		}
		defer dev.Close()
		saved, err := syscall.Dup(fd)
		if err == nil {
			err = syscall.Dup3(int(dev.Fd()), fd, syscall.O_CLOEXEC)
		}
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := syscall.Dup3(saved, fd, syscall.O_CLOEXEC); err != nil {
				t.Fatal(err)
			}
			syscall.Close(saved)
		}
	}
	t.Fatalf("no open descriptor on %s", wal)
	return nil
}
