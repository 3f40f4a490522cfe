//go:build !unix

package store

import "os"

// flockExclusive is a no-op where flock is unavailable: the store still
// works, but the one-writer-per-directory guard is advisory only (the
// O_APPEND single-line writes keep concurrent appends from interleaving
// mid-record).
func flockExclusive(*os.File) error { return nil }

// fsyncDir is a no-op where directories cannot be fsynced (Windows
// refuses the call); renames there are as durable as the platform makes
// them.
func fsyncDir(*os.File) error { return nil }
