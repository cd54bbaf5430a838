//go:build unix

package testutil

import (
	"os"
	"syscall"
	"testing"
)

// HoldFile makes the next reader of the file at path wait until release
// is called: the file is swapped for a named pipe, entered closes once a
// reader has opened the pipe, and release puts the file back and hands
// its bytes to that reader, then waits until they are written. A reader
// that opens path after release reads the file itself. The test's
// cleanup releases a pipe that is still held.
// lint:testonly a helper the tests of several packages share
func HoldFile(t *testing.T, path string) (entered <-chan struct{}, release func()) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	held := path + ".held"
	if err := os.Rename(path, held); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o644); err != nil {
		t.Fatal(err)
	}
	in, let, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	read := true // a reader opened the pipe, and waits for the bytes
	go func() {
		defer close(done)
		w, err := os.OpenFile(path, os.O_WRONLY, 0)
		close(in)
		<-let
		if err == nil && read {
			_, err = w.Write(data)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Error(err)
		}
	}()
	released := false
	release = func() {
		if released {
			return
		}
		released = true
		select {
		case <-in:
		default:
			// Nobody opened the pipe: open its read end so that the
			// writer's open returns.
			r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Close()
			<-in
			read = false
		}
		if err := os.Rename(held, path); err != nil {
			t.Error(err)
		}
		close(let)
		<-done
	}
	t.Cleanup(release)
	return in, release
}
