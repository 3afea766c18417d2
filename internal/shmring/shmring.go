// Package shmring is the shared-memory transport substrate: a pair of
// lock-free SPSC byte rings plus rendezvous arenas laid out in one
// mmap-ed segment (a file under /dev/shm), so two processes on the same
// host exchange engine packets with zero intermediate copies. The
// package is deliberately driver-agnostic — it moves byte records and
// carves payload regions; internal/drivers/shmdrv turns it into a
// core.Driver.
//
// # Segment layout
//
// One segment serves one rail, both directions:
//
//	page 0          header: magic, version, geometry, creator pid,
//	                per-side liveness blocks (attach state, heartbeat)
//	direction 0     ring control · ring data · arena control · arena data
//	direction 1     (same, side 1 → side 0)
//
// Beside the segment file sit four FIFOs, <name>.bell0 to <name>.bell3:
// bell0 and bell1 are the data doorbells of directions 0 and 1, bell2
// and bell3 their space doorbells. They share the segment's lifecycle —
// made with it, unlinked with it, reaped with it.
//
// Each direction is strictly single-producer/single-consumer: the
// producer owns the ring head and arena head, the consumer owns the
// ring tail; arena regions are freed by the consumer (a state flag in
// the region header) and reclaimed by the producer in order. Head and
// tail live on their own cache lines and are published with atomic
// stores, which is the whole synchronization story for the data path.
//
// # Inline vs rendezvous
//
// Small records are copied through the ring. Large payloads take the
// rendezvous path: the producer carves a region straight out of the
// shared arena, writes the payload there exactly once, and pushes a
// 16-byte reference record; the consumer hands the region's bytes
// upward zero-copy and marks it freed when the packet lease is
// released — the RDMA-write analogue, with the region header's state
// word standing in for the remote completion. Nothing else crosses: a
// record or region that cannot fit even an empty ring or arena is
// refused with ErrTooLarge, and the default arena holds one region of
// the largest frame the engine posts.
//
// # Blocking
//
// Waiting peers do not spin, and every wait parks the same way: in Go's
// netpoller on a doorbell, a FIFO beside the segment that both
// processes open by path — one goroutine wake per ring, as for a socket
// reader, and no OS thread blocked in a syscall. A consumer waiting for
// data parks on its direction's data doorbell; a producer waiting for
// ring or arena space (the rare side, when the consumer falls behind)
// parks on the direction's space doorbell. Every wait sits behind a
// waiter-present word in the control line: the waiter raises it before
// its final re-check of the cursors, and the other side rings only when
// it reads non-zero — so a busy stream makes no wake syscall at all,
// and sequentially consistent atomics guarantee that no wake is lost.
// Waits are sliced (capped at a few tens of milliseconds) so local
// close and peer death are always noticed: every side stamps a
// heartbeat word, and a peer whose state is closed — or whose heartbeat
// goes stale past the configured timeout — fails blocked operations
// with ErrPeerGone instead of parking them forever.
//
// Linux-only: segments need /dev/shm and FIFOs. On other platforms
// Supported reports false and Create/Open fail with ErrUnsupported;
// callers gate with Supported and skip.
package shmring

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

// Errors reported by segment operations.
var (
	// ErrUnsupported reports a platform without /dev/shm and FIFOs.
	ErrUnsupported = errors.New("shmring: shared-memory segments unsupported on this platform")
	// ErrClosed reports an operation on a locally closed (or killed)
	// segment.
	ErrClosed = errors.New("shmring: segment closed")
	// ErrPeerGone reports a peer that closed its side or stopped
	// heartbeating past the timeout.
	ErrPeerGone = errors.New("shmring: peer gone")
	// ErrTooLarge reports a record or region that cannot fit the ring or
	// arena even when empty.
	ErrTooLarge = errors.New("shmring: payload exceeds capacity")
)

// Config fixes a segment's geometry and liveness policy. Zero values
// get defaults; sizes are rounded up to powers of two.
type Config struct {
	// RingBytes is the per-direction ring capacity (default 256 KiB).
	RingBytes int
	// ArenaBytes is the per-direction rendezvous arena capacity
	// (default 16 MiB: one region of the largest engine frame, an 8 MiB
	// payload behind its header, fits, and a second waits for it).
	ArenaBytes int
	// PeerTimeout is how stale the peer's heartbeat may grow before
	// blocked operations fail with ErrPeerGone (default 2s).
	PeerTimeout time.Duration
}

// Defaults for Config zero values, and the smallest geometry.
const (
	DefaultRingBytes   = 256 << 10
	DefaultArenaBytes  = 16 << 20
	DefaultPeerTimeout = 2 * time.Second

	minRingBytes  = 4 << 10
	minArenaBytes = 64 << 10
)

func (c Config) withDefaults() Config {
	if c.RingBytes <= 0 {
		c.RingBytes = DefaultRingBytes
	}
	if c.ArenaBytes <= 0 {
		c.ArenaBytes = DefaultArenaBytes
	}
	c.RingBytes = max(ceilPow2(c.RingBytes), minRingBytes)
	c.ArenaBytes = max(ceilPow2(c.ArenaBytes), minArenaBytes)
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = DefaultPeerTimeout
	}
	return c
}

// checkGeometry refuses a geometry read from a segment header that
// withDefaults could not have produced: the ring and arena cursors are
// masked, so each size must be a power of two, and at least the minimum.
func (c Config) checkGeometry() error {
	pow2 := func(n, least int) bool { return n >= least && n&(n-1) == 0 }
	if !pow2(c.RingBytes, minRingBytes) || !pow2(c.ArenaBytes, minArenaBytes) {
		return fmt.Errorf("ring %d and arena %d bytes: each must be a power of two, at least %d and %d",
			c.RingBytes, c.ArenaBytes, minRingBytes, minArenaBytes)
	}
	return nil
}

// MaxRegion is the largest region Alloc can carve from an empty arena.
func (c Config) MaxRegion() int { return c.ArenaBytes - regHdrLen }

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Record kinds pushed through a direction's ring. The ring itself is
// agnostic; these are declared here so both ends of shmdrv agree. Kinds
// 3 and 4 are retired: a peer that pushes one, or any other kind, is
// forging records.
const (
	// RecInline carries one full wire frame copied through the ring.
	RecInline uint32 = 1
	// RecRendezvous carries a 16-byte arena reference: u64 region
	// offset, u64 frame length.
	RecRendezvous uint32 = 2
)

// Segment geometry constants. Every offset and advance is a multiple of
// recAlign, so record and region headers never wrap the ring edge.
const (
	segMagic   = uint64(0x314d48534d57454e) // "NEWMSHM1"
	segVersion = uint32(3)

	hdrSize    = 4096
	side0Off   = 1024
	side1Off   = 2048
	sideState  = 0 // u32: attach state
	sideHeart  = 8 // i64: heartbeat, unix nanos
	dirCtlSize = 256
	ctlHead    = 0
	ctlTail    = 64
	ctlData    = 128 // u32 waiter word: consumer parked for data
	ctlSpace   = 192 // u32 waiter word: producer parked for ring space
	arCtlSize  = 192
	arHead     = 0
	arTail     = 64
	arSpace    = 128 // u32 waiter word: producer parked for arena space

	recAlign  = 16
	recHdrLen = 16 // u32 kind, u32 reserved, u64 payload length
	regHdrLen = 16 // u64 size, u32 state, u32 reserved

	// waitSlice caps one sleep so close/death flags are polled.
	waitSlice = 25 * time.Millisecond
)

// Per-side attach states.
const (
	stateInit     = uint32(0)
	stateAttached = uint32(1)
	stateClosed   = uint32(2)
)

// Arena region states. A region is busy from Alloc until the consumer
// claims it for delivery (held), and free once Free releases it.
const (
	regBusy = uint32(1)
	regFree = uint32(2)
	regSkip = uint32(3)
	regHeld = uint32(4)
)

// Arena lease accounting, process-wide: PoolStats-style counters proving
// every rendezvous region carved in this process's segments is freed
// again. For an in-process pair (both sides mapped here) a drained,
// closed pair leaves Live at its starting value.
var (
	arenaAllocs atomic.Uint64
	arenaFrees  atomic.Uint64
	arenaLive   atomic.Int64
)

// ArenaStat is a snapshot of the rendezvous-region lease accounting.
type ArenaStat struct {
	Allocs uint64 // regions carved
	Frees  uint64 // regions released
	Live   int64  // regions currently leased
}

// ArenaStats returns the process-wide rendezvous-region accounting.
func ArenaStats() ArenaStat {
	return ArenaStat{Allocs: arenaAllocs.Load(), Frees: arenaFrees.Load(), Live: arenaLive.Load()}
}

// nBells is the number of doorbells per segment: bell i is direction
// i's data doorbell, bell 2+i its space doorbell.
const nBells = 4

// Seg is one mapped shared-memory segment: this process's side of a
// rail. The mapping is reference-counted — Retain/Unref — so payload
// slices handed out zero-copy stay valid until their leases release,
// however the segment itself is closed.
type Seg struct {
	name  string
	path  string
	mem   []byte
	side  int // 0 creator, 1 attacher
	cfg   Config
	bells [nBells]*doorbell

	tx, rx Dir

	refs      atomic.Int64
	closed    atomic.Bool // local: fails blocked ops promptly
	closeDone atomic.Bool // Close ran (distinct from Kill's closed)
	unlinked  atomic.Bool
	unmapped  atomic.Bool
	// corrupt holds the first malformed record TryPop found, or the
	// first arena region Free found in a state the peer forged: the peer
	// controls every byte of the mapping, so either is hostile input, and
	// from then on PeerGone reports the peer dead with it.
	corrupt atomic.Pointer[error]
}

// Dir is one direction of a segment, bound to this side's role in it:
// the producer half (Push/Alloc) on the TX direction, the consumer half
// (TryPop/Free) on the RX direction.
type Dir struct {
	seg *Seg

	head, tail        *atomic.Uint64
	dataWait          *atomic.Uint32 // consumer parked on dataBell
	spcWait           *atomic.Uint32 // producer parked on spcBell for ring space
	ring              []byte
	aHead, aTail      *atomic.Uint64
	aSpcWait          *atomic.Uint32 // producer parked on spcBell for arena space
	arena             []byte
	dataBell, spcBell *doorbell
	ringMask, arMask  uint64
}

// segSize computes the file size for a geometry.
func segSize(c Config) int {
	return hdrSize + 2*(dirCtlSize+c.RingBytes+arCtlSize+c.ArenaBytes)
}

// bind wires the Seg's Dir views over the mapping and the doorbells.
// Side i produces into direction i and consumes direction 1-i.
func (s *Seg) bind() {
	dir := func(i int) Dir {
		off := hdrSize + i*(dirCtlSize+s.cfg.RingBytes+arCtlSize+s.cfg.ArenaBytes)
		ctl := s.mem[off:]
		u32 := func(b []byte, at int) *atomic.Uint32 { return (*atomic.Uint32)(unsafe.Pointer(&b[at])) }
		d := Dir{
			seg:      s,
			head:     (*atomic.Uint64)(unsafe.Pointer(&ctl[ctlHead])),
			tail:     (*atomic.Uint64)(unsafe.Pointer(&ctl[ctlTail])),
			dataWait: u32(ctl, ctlData),
			spcWait:  u32(ctl, ctlSpace),
			ring:     s.mem[off+dirCtlSize : off+dirCtlSize+s.cfg.RingBytes],
			dataBell: s.bells[i],
			spcBell:  s.bells[2+i],
			ringMask: uint64(s.cfg.RingBytes - 1),
			arMask:   uint64(s.cfg.ArenaBytes - 1),
		}
		arOff := off + dirCtlSize + s.cfg.RingBytes
		arCtl := s.mem[arOff:]
		d.aHead = (*atomic.Uint64)(unsafe.Pointer(&arCtl[arHead]))
		d.aTail = (*atomic.Uint64)(unsafe.Pointer(&arCtl[arTail]))
		d.aSpcWait = u32(arCtl, arSpace)
		d.arena = s.mem[arOff+arCtlSize : arOff+arCtlSize+s.cfg.ArenaBytes]
		return d
	}
	s.tx = dir(s.side)
	s.rx = dir(1 - s.side)
}

// TX returns the direction this side produces into.
func (s *Seg) TX() *Dir { return &s.tx }

// RX returns the direction this side consumes.
func (s *Seg) RX() *Dir { return &s.rx }

// Name returns the segment name (the /dev/shm file name).
func (s *Seg) Name() string { return s.name }

// Config returns the segment's effective (rounded) geometry.
func (s *Seg) Config() Config { return s.cfg }

// Side returns this side's index: 0 for the creator, 1 for the attacher.
func (s *Seg) Side() int { return s.side }

// sideWord returns an atomic view of a side-block word.
func (s *Seg) sideWord32(side, off int) *atomic.Uint32 {
	base := side0Off
	if side == 1 {
		base = side1Off
	}
	return (*atomic.Uint32)(unsafe.Pointer(&s.mem[base+off]))
}

func (s *Seg) sideWord64(side, off int) *atomic.Int64 {
	base := side0Off
	if side == 1 {
		base = side1Off
	}
	return (*atomic.Int64)(unsafe.Pointer(&s.mem[base+off]))
}

// StampHeartbeat publishes this side's liveness: call it at least every
// PeerTimeout/4 or the peer will declare this side dead.
func (s *Seg) StampHeartbeat() {
	if !s.enter() {
		return
	}
	defer s.exit()
	s.sideWord64(s.side, sideHeart).Store(time.Now().UnixNano())
}

// PeerAttached reports whether the peer side has ever attached.
func (s *Seg) PeerAttached() bool {
	if !s.enter() {
		return false
	}
	defer s.exit()
	return s.sideWord32(1-s.side, sideState).Load() != stateInit
}

// PeerGone reports whether the peer is no longer serving its side: it
// closed gracefully, or it attached and then stopped heartbeating past
// the configured timeout (a crashed process). A peer that never
// attached is not gone — it has not arrived yet.
func (s *Seg) PeerGone() (bool, error) {
	if !s.enter() {
		return true, ErrClosed
	}
	defer s.exit()
	if err := s.corrupt.Load(); err != nil {
		return true, *err
	}
	switch s.sideWord32(1-s.side, sideState).Load() {
	case stateInit:
		return false, nil
	case stateClosed:
		return true, fmt.Errorf("%w: peer closed segment %s", ErrPeerGone, s.name)
	}
	hb := s.sideWord64(1-s.side, sideHeart).Load()
	if age := time.Since(time.Unix(0, hb)); age > s.cfg.PeerTimeout {
		return true, fmt.Errorf("%w: peer heartbeat stale for %v on segment %s", ErrPeerGone, age.Round(time.Millisecond), s.name)
	}
	return false, nil
}

// waitErr is the blocked-operation guard: local close first, then peer
// death.
func (s *Seg) waitErr() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if gone, err := s.PeerGone(); gone {
		return err
	}
	return nil
}

// Retain takes one reference on the mapping: the holder may keep slices
// into the segment until the matching Unref.
func (s *Seg) Retain() { s.refs.Add(1) }

// Unref drops one reference; the last one unmaps the segment.
func (s *Seg) Unref() {
	if s.refs.Add(-1) == 0 {
		s.unmap()
	}
}

// enter pins the mapping for the duration of one Dir operation: it
// fails once the last reference is gone (the memory is, or is about to
// be, unmapped). Every successful enter pairs with exit.
func (s *Seg) enter() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

func (s *Seg) exit() { s.Unref() }

// wakeAll rings every doorbell in both directions, waiter or not, so
// blocked peers (and this side's own waiters) re-check state promptly.
func (s *Seg) wakeAll() {
	if !s.enter() {
		return
	}
	defer s.exit()
	for _, b := range s.bells {
		b.ring()
	}
}

// lostWakes counts waits that ran out their slice although what they
// waited for had already happened: a wake that was owed and never came.
// A peer that is merely slow leaves nothing to find and is not counted.
var lostWakes atomic.Uint64

// park waits on bell until ready holds, the bell rings, or the slice of
// timeout passes. Callers loop: a wake is a hint, not a guarantee. The
// waiter word goes up before the final look at ready, so the other side
// either made ready true before that look or reads the word non-zero
// and rings.
func park(waiting *atomic.Uint32, bell *doorbell, ready func() bool, timeout time.Duration) {
	if timeout <= 0 || timeout > waitSlice {
		timeout = waitSlice
	}
	waiting.Add(1)
	if !ready() && bell.wait(timeout) && ready() {
		lostWakes.Add(1)
	}
	waiting.Add(^uint32(0))
}

// wake rings bell if a waiter is parked behind the word: a busy stream,
// whose waiter words stay zero, makes no syscall.
func wake(waiting *atomic.Uint32, bell *doorbell) {
	if waiting.Load() != 0 {
		bell.ring()
	}
}

// Kill abandons the segment as a crash would: local operations fail
// with ErrClosed, but the shared state is left untouched — no closed
// flag, no further heartbeats — so the peer discovers the death the
// hard way, by heartbeat staleness. Test hook for crash scenarios; the
// mapping reference is NOT dropped (pair Kill with Unref, or let Close
// clean up).
func (s *Seg) Kill() {
	s.closed.Store(true)
	s.wakeAll()
}

// Close gracefully shuts this side down: the shared side state flips to
// closed (the peer gets an immediate, loud ErrPeerGone), local blocked
// operations fail, the segment file is unlinked if still linked, and
// the base mapping reference is dropped. After a Kill, Close still
// releases local resources but leaves the shared state crashed — the
// peer must earn its death report through heartbeat staleness.
// Idempotent.
func (s *Seg) Close() error {
	if s.closeDone.Swap(true) {
		return nil
	}
	wasKilled := s.closed.Swap(true)
	if !wasKilled && s.enter() {
		s.sideWord32(s.side, sideState).Store(stateClosed)
		s.exit()
	}
	s.wakeAll()
	s.Unlink()
	s.Unref()
	return nil
}

// ---- ring: producer side ------------------------------------------------

func align16(n int) int { return (n + recAlign - 1) &^ (recAlign - 1) }

// copyIn copies src into the ring at cursor cur, wrapping at the edge.
func (d *Dir) copyIn(cur uint64, src []byte) {
	p := cur & d.ringMask
	n := copy(d.ring[p:], src)
	if n < len(src) {
		copy(d.ring, src[n:])
	}
}

// Push appends one record — kind plus the concatenated parts — to the
// ring, parking on the space doorbell while the ring is full. The
// scatter parts spare callers an intermediate concatenation: a frame
// header and its payload push as one record, one copy each.
func (d *Dir) Push(kind uint32, parts ...[]byte) error {
	if !d.seg.enter() {
		return ErrClosed
	}
	defer d.seg.exit()
	if d.seg.closed.Load() {
		return ErrClosed
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	need := uint64(recHdrLen + align16(total))
	capa := uint64(len(d.ring))
	if need > capa {
		return ErrTooLarge
	}
	fits := func() bool { return capa-(d.head.Load()-d.tail.Load()) >= need }
	for !fits() {
		if err := d.seg.waitErr(); err != nil {
			return err
		}
		park(d.spcWait, d.spcBell, fits, waitSlice)
	}
	head := d.head.Load()
	pos := head & d.ringMask
	putU32(d.ring[pos:], kind)
	putU32(d.ring[pos+4:], 0)
	putU64(d.ring[pos+8:], uint64(total))
	cur := head + recHdrLen
	for _, p := range parts {
		d.copyIn(cur, p)
		cur += uint64(len(p))
	}
	d.head.Store(head + need)
	wake(d.dataWait, d.dataBell)
	return nil
}

// ---- ring: consumer side ------------------------------------------------

// TryPop consumes the oldest record if one is available, handing its
// kind and payload — possibly split in two at the ring edge — to fn.
// The bytes are valid only within fn; the slot is recycled on return.
// The cursors and the record header live in the peer's mapping too, so
// they are checked before anything is sliced: a record that does not
// fit what the peer published is never consumed, and PeerGone reports
// the peer dead from then on.
func (d *Dir) TryPop(fn func(kind uint32, a, b []byte)) bool {
	if !d.seg.enter() {
		return false
	}
	defer d.seg.exit()
	if d.seg.corrupt.Load() != nil {
		return false
	}
	head, tail := d.head.Load(), d.tail.Load()
	if head == tail {
		return false
	}
	avail := head - tail
	if avail > uint64(len(d.ring)) || avail < recHdrLen || tail%recAlign != 0 {
		d.seg.markCorrupt(fmt.Errorf("ring cursors head %d tail %d", head, tail))
		return false
	}
	pos := tail & d.ringMask
	kind := getU32(d.ring[pos:])
	ln := getU64(d.ring[pos+8:])
	if ln > avail-recHdrLen || uint64(recHdrLen+align16(int(ln))) > avail {
		d.seg.markCorrupt(fmt.Errorf("record length %d with %d bytes published", ln, avail))
		return false
	}
	n := int(ln)
	start := (tail + recHdrLen) & d.ringMask
	var a, b []byte
	if int(start)+n <= len(d.ring) {
		a = d.ring[start : int(start)+n]
	} else {
		a = d.ring[start:]
		b = d.ring[:n-len(a)]
	}
	fn(kind, a, b)
	d.tail.Store(tail + uint64(recHdrLen+align16(n)))
	wake(d.spcWait, d.spcBell)
	return true
}

// markCorrupt records the first corruption finding.
func (s *Seg) markCorrupt(cause error) {
	err := fmt.Errorf("%w: corrupt ring on segment %s: %v", ErrPeerGone, s.name, cause)
	s.corrupt.CompareAndSwap(nil, &err)
}

// Empty reports whether the direction's ring has no pending records.
func (d *Dir) Empty() bool {
	if !d.seg.enter() {
		return true
	}
	defer d.seg.exit()
	return !d.hasData()
}

// WaitData parks the consumer on the data doorbell until the producer
// publishes, someone wakes the segment, or the slice of timeout passes.
// Callers loop: a wakeup is a hint, not a guarantee.
func (d *Dir) WaitData(timeout time.Duration) {
	if !d.seg.enter() {
		return
	}
	defer d.seg.exit()
	if !d.hasData() {
		park(d.dataWait, d.dataBell, d.hasData, timeout)
	}
}

func (d *Dir) hasData() bool { return d.head.Load() != d.tail.Load() }

// ---- arena: producer side -----------------------------------------------

func (d *Dir) regState(pos uint64) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&d.arena[pos+8]))
}

// reclaim advances the arena tail over regions the consumer has freed
// (and over skip padding), in order. An arena left empty rewinds both
// cursors to offset zero, so a steady exchange keeps reusing the same
// warm pages instead of sweeping the whole arena. Producer-only: the
// consumer never reads the cursors, only masked region offsets.
func (d *Dir) reclaim() {
	head := d.aHead.Load()
	tail := d.aTail.Load()
	for tail < head {
		pos := tail & d.arMask
		size := getU64(d.arena[pos:])
		if st := d.regState(pos).Load(); st == regBusy || st == regHeld {
			break
		}
		tail += uint64(regHdrLen + align16(int(size)))
	}
	if tail == head && tail&d.arMask != 0 {
		tail = (tail + d.arMask) &^ d.arMask
		d.aHead.Store(tail)
	}
	d.aTail.Store(tail)
}

// Alloc carves a contiguous n-byte region out of the shared arena,
// parking on the space doorbell while the consumer still holds too much
// of it. The returned offset — the region's start within the arena —
// names it for the ring record and for Free; the slice aliases the
// mapping, sized exactly n.
func (d *Dir) Alloc(n int) (uint64, []byte, error) {
	if !d.seg.enter() {
		return 0, nil, ErrClosed
	}
	defer d.seg.exit()
	if d.seg.closed.Load() {
		return 0, nil, ErrClosed
	}
	need := uint64(regHdrLen + align16(n))
	capa := uint64(len(d.arena))
	if need > capa {
		return 0, nil, ErrTooLarge
	}
	for {
		d.reclaim()
		head := d.aHead.Load()
		tail := d.aTail.Load()
		pos := head & d.arMask
		if pos+need > capa {
			// The region would wrap: pad the edge with a skip region
			// (reclaimed like a freed one) and retry from offset zero.
			if capa-(head-tail) >= capa-pos {
				skip := capa - pos - regHdrLen
				putU64(d.arena[pos:], skip)
				d.regState(pos).Store(regSkip)
				d.aHead.Store(head + (capa - pos))
				continue
			}
		} else if capa-(head-tail) >= need {
			putU64(d.arena[pos:], uint64(n))
			d.regState(pos).Store(regBusy)
			d.aHead.Store(head + need)
			arenaAllocs.Add(1)
			arenaLive.Add(1)
			start := pos + regHdrLen
			return start, d.arena[start : start+uint64(n) : start+uint64(n)], nil
		}
		if err := d.seg.waitErr(); err != nil {
			return 0, nil, err
		}
		park(d.aSpcWait, d.spcBell, func() bool {
			d.reclaim()
			return capa-(d.aHead.Load()-d.aTail.Load()) >= need
		}, waitSlice)
	}
}

// ---- arena: consumer side (plus producer abandon) -----------------------

// Region claims the region a ring record names by offset and length
// and returns its bytes. The record comes from the peer, so it is
// checked before anything is sliced: the region must lie 16-aligned
// inside the arena behind its header, match the header's length, and
// be busy — so a forged record, or a second record naming a region
// already claimed, is refused with an error.
// The caller must hold its own Retain on the segment for as long as the
// slice lives.
func (d *Dir) Region(off uint64, n int) ([]byte, error) {
	hdr := (off - regHdrLen) & d.arMask
	start := hdr + regHdrLen
	if hdr%16 != 0 || n < 0 || uint64(n) > uint64(len(d.arena))-start {
		return nil, fmt.Errorf("arena region %d+%d out of bounds", off, n)
	}
	if getU64(d.arena[hdr:]) != uint64(n) {
		return nil, fmt.Errorf("arena region %d+%d does not match its header", off, n)
	}
	if !d.regState(hdr).CompareAndSwap(regBusy, regHeld) {
		return nil, fmt.Errorf("arena region %d+%d is not awaiting delivery", off, n)
	}
	return d.arena[start : start+uint64(n) : start+uint64(n)], nil
}

// Free releases a region: the single-owner lease rule for rendezvous
// payloads — the RECEIVER frees the arena region (the producer merely
// reclaims in order), exactly once, when the packet lease built over it
// releases. Also used by the producer to abandon a carved region whose
// ring record was never published. The state word lives in the mapping,
// so the peer can rewrite it under a region this side holds; a region
// found neither held nor busy marks the segment corrupt, and PeerGone
// reports the peer dead from then on. This side's lease ends either way.
func (d *Dir) Free(off uint64) {
	if !d.seg.enter() {
		return
	}
	defer d.seg.exit()
	st := d.regState((off - regHdrLen) & d.arMask)
	if !st.CompareAndSwap(regHeld, regFree) && !st.CompareAndSwap(regBusy, regFree) {
		d.seg.markCorrupt(fmt.Errorf("arena region %d freed in state %d", off, st.Load()))
	}
	arenaFrees.Add(1)
	arenaLive.Add(-1)
	wake(d.aSpcWait, d.spcBell)
}

// ---- unaligned little-endian helpers ------------------------------------

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}
