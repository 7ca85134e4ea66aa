//go:build !unix

package store

import "os"

// lockExclusive takes no lock where flock is unavailable: keeping one
// writer per store is then up to the caller.
func lockExclusive(*os.File) error { return nil }
