//go:build unix

package store

import (
	"errors"
	"os"
	"syscall"
)

// lockExclusive takes a non-blocking exclusive flock on f, held until f is
// closed. The kernel releases it if the process dies, so a crashed session
// never leaves the store locked.
func lockExclusive(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return errors.New("another writer has the store open")
	}
	return err
}
