//go:build linux

package shmring

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// shmDir is where segments live: a tmpfs present on every modern Linux.
const shmDir = "/dev/shm"

// NamePrefix marks every segment file this package creates — and the
// doorbell FIFOs beside each — so the orphan reaper only ever considers
// its own files.
const NamePrefix = "newmad-shm-"

// Header field offsets (within page 0). The magic is written LAST and
// atomically: an attacher that sees it may trust everything else.
const (
	hdrMagic = 0
	hdrVer   = 8
	hdrRing  = 12
	hdrArena = 16
	hdrPID   = 24
)

var (
	supportedOnce sync.Once
	supportedOK   bool
	nameSeq       atomic.Uint64
)

// Supported reports whether this host can carry shared-memory rails:
// Linux with a writable /dev/shm.
func Supported() bool {
	supportedOnce.Do(func() {
		st, err := os.Stat(shmDir)
		if err != nil || !st.IsDir() {
			return
		}
		probe, err := os.CreateTemp(shmDir, NamePrefix+"probe-*")
		if err != nil {
			return
		}
		probe.Close()
		os.Remove(probe.Name())
		supportedOK = true
	})
	return supportedOK
}

// RandomName mints a fresh segment name carrying the creator pid (for
// the reaper) and enough entropy to never collide.
func RandomName() string {
	var b [4]byte
	rand.Read(b[:])
	return fmt.Sprintf("%s%d-%d-%s", NamePrefix, os.Getpid(), nameSeq.Add(1), hex.EncodeToString(b[:]))
}

// SegPath returns the filesystem path backing a segment name.
func SegPath(name string) string { return filepath.Join(shmDir, name) }

// Create builds a fresh segment under name and maps it as side 0, with
// its four fresh doorbell FIFOs beside it. The file is created
// O_EXCL: a live name collision is an error, but a collision with an
// orphan — a dead creator's leftover — is reaped and retried once, so
// crashed runs can't poison a name forever.
func Create(name string, cfg Config) (*Seg, error) {
	if !Supported() {
		return nil, ErrUnsupported
	}
	cfg = cfg.withDefaults()
	path := SegPath(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if errors.Is(err, os.ErrExist) {
		if reapOne(path) {
			f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("shmring: create %s: %w", name, err)
	}
	size := segSize(cfg)
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("shmring: size %s: %w", name, err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	f.Close()
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("shmring: mmap %s: %w", name, err)
	}
	s := &Seg{name: name, path: path, mem: mem, side: 0, cfg: cfg}
	// The name is ours: a doorbell left from an earlier life is stale.
	removeBells(path)
	if err := s.openBells(); err != nil {
		s.closeBells()
		removeBells(path)
		syscall.Munmap(mem)
		os.Remove(path)
		return nil, fmt.Errorf("shmring: create %s: %w", name, err)
	}
	s.refs.Store(1)
	putU32(mem[hdrVer:], segVersion)
	putU32(mem[hdrRing:], uint32(cfg.RingBytes))
	putU32(mem[hdrArena:], uint32(cfg.ArenaBytes))
	putU64(mem[hdrPID:], uint64(os.Getpid()))
	s.bind()
	s.sideWord32(0, sideState).Store(stateAttached)
	s.StampHeartbeat()
	// Publish last: an attacher polling the magic sees a complete header.
	(*atomic.Uint64)(unsafe.Pointer(&mem[hdrMagic])).Store(segMagic)
	return s, nil
}

// Open maps an existing segment as side 1 and opens its doorbells. The
// creator may still be mid-initialisation (attach-or-create races), so
// the magic is polled briefly before giving up. The header is the
// creator's to forge, so a geometry Create could not have written is
// refused before anything is mapped. Only one attacher wins the side-1
// slot.
func Open(name string, cfg Config) (*Seg, error) {
	if !Supported() {
		return nil, ErrUnsupported
	}
	cfg = cfg.withDefaults()
	path := SegPath(name)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("shmring: open %s: %w", name, err)
	}
	defer f.Close()
	hdr := make([]byte, hdrSize)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := f.ReadAt(hdr[:32], 0); err == nil && getU64(hdr[hdrMagic:]) == segMagic {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shmring: open %s: segment never initialised", name)
		}
		time.Sleep(time.Millisecond)
	}
	if v := getU32(hdr[hdrVer:]); v != segVersion {
		return nil, fmt.Errorf("shmring: open %s: version %d, want %d", name, v, segVersion)
	}
	geo := Config{
		RingBytes:   int(getU32(hdr[hdrRing:])),
		ArenaBytes:  int(getU32(hdr[hdrArena:])),
		PeerTimeout: cfg.PeerTimeout,
	}
	if err := geo.checkGeometry(); err != nil {
		return nil, fmt.Errorf("shmring: open %s: %w", name, err)
	}
	size := segSize(geo)
	if st, err := f.Stat(); err != nil || st.Size() < int64(size) {
		return nil, fmt.Errorf("shmring: open %s: truncated segment", name)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shmring: mmap %s: %w", name, err)
	}
	s := &Seg{name: name, path: path, mem: mem, side: 1, cfg: geo}
	if err := s.openBells(); err != nil {
		s.closeBells()
		syscall.Munmap(mem)
		return nil, fmt.Errorf("shmring: open %s: %w", name, err)
	}
	s.refs.Store(1)
	s.bind()
	// The doorbells are open before the attach is published: the
	// creator unlinks them once it sees this side attached.
	if !s.sideWord32(1, sideState).CompareAndSwap(stateInit, stateAttached) {
		s.closeBells()
		syscall.Munmap(mem)
		return nil, fmt.Errorf("shmring: open %s: segment already has a peer", name)
	}
	s.StampHeartbeat()
	// Wake the creator: its handshake may be parked waiting for us.
	s.wakeAll()
	return s, nil
}

// openBells opens the segment's doorbells, making any that is not
// there yet: the creator makes them before it publishes the magic, so
// an attacher normally finds them, but either side may.
func (s *Seg) openBells() error {
	for i := range s.bells {
		path := bellPath(s.path, i)
		if err := makeBell(path); err != nil {
			return fmt.Errorf("doorbell %s: %w", path, err)
		}
		b, err := openBell(path)
		if err != nil {
			return err
		}
		s.bells[i] = b
	}
	return nil
}

func (s *Seg) closeBells() {
	for _, b := range s.bells {
		if b != nil {
			b.close()
		}
	}
}

// removeBells unlinks a segment's doorbell FIFOs.
func removeBells(segPath string) {
	for i := range nBells {
		os.Remove(bellPath(segPath, i))
	}
}

// Unlink removes the segment file and its doorbells. The canonical flow
// is the creator unlinking as soon as the peer attaches — both sides
// have opened the doorbells by then — so from then on the segment
// exists only as the two mappings and open FIFOs, and a process crash
// can't leak a file. Idempotent, callable by either side.
func (s *Seg) Unlink() {
	if s.unlinked.Swap(true) {
		return
	}
	removeBells(s.path)
	os.Remove(s.path)
}

// Unlinked reports whether the segment file has been removed.
func (s *Seg) Unlinked() bool { return s.unlinked.Load() }

func (s *Seg) unmap() {
	// Runs only when the reference count hit zero: no Dir operation is
	// in flight (they all enter/exit) and none can start again.
	if s.unmapped.Swap(true) {
		return
	}
	s.closeBells()
	syscall.Munmap(s.mem)
}

// reapOne unlinks path, with its doorbells, if it is a newmad segment
// whose creator process is gone, or an unreadable/uninitialised
// leftover older than a minute. Reports whether the path no longer
// stands in the way. Only a regular file is opened: opening a FIFO for
// reading would block until some process writes it.
func reapOne(path string) bool {
	st, err := os.Lstat(path)
	if err != nil {
		return errors.Is(err, os.ErrNotExist)
	}
	if !st.Mode().IsRegular() {
		return false
	}
	remove := func() bool {
		removeBells(path)
		return os.Remove(path) == nil
	}
	f, err := os.Open(path)
	if err != nil {
		return errors.Is(err, os.ErrNotExist)
	}
	hdr := make([]byte, 32)
	_, rerr := f.ReadAt(hdr, 0)
	f.Close()
	if rerr != nil || getU64(hdr[hdrMagic:]) != segMagic {
		if time.Since(st.ModTime()) > time.Minute {
			return remove()
		}
		return false
	}
	pid := int(getU64(hdr[hdrPID:]))
	if pid <= 0 || !pidAlive(pid) {
		return remove()
	}
	return false
}

// pidAlive reports whether a process with the given pid exists (signal
// 0 probe; EPERM still means alive).
func pidAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

// ReapOrphans sweeps /dev/shm for segments left behind by crashed
// processes — creator pid no longer alive — and unlinks them with their
// doorbells, plus any doorbell left without its segment file (an
// attacher that made it after the creator unlinked). Returns how many
// segments and stray doorbells were removed. Safe to run concurrently
// with live traffic: live segments' creators are alive, so they are
// skipped, and a live doorbell always has its segment file beside it.
func ReapOrphans() int {
	if !Supported() {
		return 0
	}
	ents, err := os.ReadDir(shmDir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), NamePrefix) {
			continue
		}
		full := filepath.Join(shmDir, e.Name())
		switch {
		case e.Type().IsRegular():
			if reapOne(full) {
				n++
			}
		case e.Type()&os.ModeNamedPipe != 0:
			seg, ok := bellSegPath(full)
			if _, err := os.Lstat(seg); ok && errors.Is(err, os.ErrNotExist) && os.Remove(full) == nil {
				n++
			}
		}
	}
	return n
}

// bellSegPath returns the segment path a doorbell path belongs to.
func bellSegPath(path string) (string, bool) {
	i := strings.LastIndex(path, ".bell")
	if i < 0 {
		return "", false
	}
	return path[:i], true
}
