//go:build !linux

package ivm_test

import "testing"

// walWritesFail needs /proc and /dev/full to fail a WAL's writes in place.
func walWritesFail(t *testing.T, dir string) func() {
	t.Skip("failing WAL writes in place needs Linux")
	return nil
}

// walSyncsFail needs /proc and /dev/null to fail a WAL's fsyncs in place.
func walSyncsFail(t *testing.T, dir string) func() {
	t.Skip("failing WAL fsyncs in place needs Linux")
	return nil
}
