//go:build linux

package shmring

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Wake and park accounting, process-wide: every doorbell ring counts in
// wakeCalls, every doorbell wait in parkCalls. Tests read them to prove
// which operations reach the kernel.
var wakeCalls, parkCalls atomic.Uint64

// doorbell is one of a segment's wake channels — a direction's data or
// space doorbell: a FIFO beside the segment that both sides open
// read-write and non-blocking. The waiting side parks in Go's netpoller
// reading it — a parked goroutine, not a thread in a syscall — and the
// other side rings it with one byte.
type doorbell struct {
	f  *os.File
	rc syscall.RawConn
	fd uintptr
	// The waiter's state, one waiter per doorbell: drain is the read
	// callback, bound once so a wait allocates nothing, and deadline the
	// read deadline last set.
	drain    func(fd uintptr) bool
	deadline time.Time
	buf      [64]byte
}

// bellPath names direction dir's doorbell beside the segment file.
func bellPath(segPath string, dir int) string { return segPath + ".bell" + strconv.Itoa(dir) }

// makeBell creates the doorbell FIFO unless it already exists.
func makeBell(path string) error {
	if err := syscall.Mkfifo(path, 0o600); !errors.Is(err, syscall.EEXIST) {
		return err
	}
	return nil
}

// openBell opens an existing doorbell FIFO. Read-write, so the FIFO
// always has a writer and a read never sees end-of-file; the file must
// be a FIFO the netpoller accepts, or a wait could not park.
func openBell(path string) (*doorbell, error) {
	f, err := os.OpenFile(path, os.O_RDWR|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, err
	}
	b := &doorbell{f: f}
	if st, err := f.Stat(); err != nil || st.Mode()&os.ModeNamedPipe == 0 {
		f.Close()
		return nil, fmt.Errorf("doorbell %s is not a FIFO", path)
	}
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		f.Close()
		return nil, fmt.Errorf("doorbell %s: %w", path, err)
	}
	if b.rc, err = f.SyscallConn(); err != nil {
		f.Close()
		return nil, err
	}
	b.rc.Control(func(fd uintptr) { b.fd = fd })
	b.drain = b.onReadable
	return b, nil
}

var bellByte = [1]byte{1}

// ring writes one byte to the doorbell. The write is non-blocking and
// never sleeps — a full pipe (EAGAIN) already holds a ring — so it goes
// straight to the kernel, without the runtime's bookkeeping for a
// syscall that might block. The descriptor stays open while the
// segment is entered, which every caller is.
func (b *doorbell) ring() {
	wakeCalls.Add(1)
	syscall.RawSyscall(syscall.SYS_WRITE, b.fd, uintptr(unsafe.Pointer(&bellByte[0])), 1)
}

// wait parks until the doorbell rings or timeout passes, draining the
// rings pending so the next wait parks again, and reports whether the
// timeout ran out. The read comes first:
// arming the netpoller forgets a readiness it saw earlier, so only a
// read that finds the FIFO empty may park. The deadline moves only when
// it is off by more than half the slice; re-arming its timer on every
// wait would cost more than the wait's own read.
func (b *doorbell) wait(timeout time.Duration) (expired bool) {
	parkCalls.Add(1)
	now := time.Now()
	if left := b.deadline.Sub(now); left > timeout || left < timeout/2 {
		b.deadline = now.Add(timeout)
		if b.f.SetReadDeadline(b.deadline) != nil {
			return false
		}
	}
	return errors.Is(b.rc.Read(b.drain), os.ErrDeadlineExceeded)
}

// onReadable is wait's read callback: it drains the FIFO and reports
// whether any ring was pending.
func (b *doorbell) onReadable(fd uintptr) bool {
	rung := false
	for {
		n, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&b.buf[0])), uintptr(len(b.buf)))
		if errno == syscall.EINTR {
			continue
		}
		rung = rung || (errno == 0 && n > 0)
		if errno != 0 || n < uintptr(len(b.buf)) {
			return rung
		}
	}
}

func (b *doorbell) close() { b.f.Close() }
