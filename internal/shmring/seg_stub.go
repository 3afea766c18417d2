//go:build !linux

package shmring

import "time"

// Non-Linux stub: shared-memory rails need /dev/shm and FIFOs. Every
// constructor fails with ErrUnsupported and Supported reports false, so
// callers gate and skip instead of breaking the build.

// Supported reports whether this host can carry shared-memory rails.
func Supported() bool { return false }

// NamePrefix marks every segment file this package creates.
const NamePrefix = "newmad-shm-"

// RandomName mints a fresh segment name (never usable here).
func RandomName() string { return NamePrefix + "unsupported" }

// SegPath returns the filesystem path backing a segment name.
func SegPath(name string) string { return name }

// Create fails: shared-memory segments are Linux-only.
func Create(name string, cfg Config) (*Seg, error) { return nil, ErrUnsupported }

// Open fails: shared-memory segments are Linux-only.
func Open(name string, cfg Config) (*Seg, error) { return nil, ErrUnsupported }

// ReapOrphans is a no-op without /dev/shm.
func ReapOrphans() int { return 0 }

// Unlink is a no-op on the stub (no Seg can exist).
func (s *Seg) Unlink() {}

// Unlinked reports whether the segment file has been removed.
func (s *Seg) Unlinked() bool { return true }

func (s *Seg) unmap() {}

// doorbell is never opened here: no Seg exists to ring or wait on.
type doorbell struct{}

func (b *doorbell) ring()                   {}
func (b *doorbell) wait(time.Duration) bool { return false }
