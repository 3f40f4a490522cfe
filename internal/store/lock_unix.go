//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// flockExclusive takes a non-blocking exclusive lock on the log file,
// enforcing one live writer per store directory. The kernel releases the
// lock on any process death, SIGKILL included.
func flockExclusive(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if err == syscall.EWOULDBLOCK {
			return ErrLocked
		}
		return fmt.Errorf("flock: %w", err)
	}
	return nil
}

// fsyncDir flushes a directory's entries (a completed rename) to disk.
func fsyncDir(d *os.File) error { return d.Sync() }
