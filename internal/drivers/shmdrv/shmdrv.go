// Package shmdrv is the shared-memory rail driver: a core.Driver over
// one shmring segment, for peers on the same host. It is the intra-node
// member of the heterogeneous rail family — the latency floor the
// multirail engine stripes against tcp and udp rails.
//
// The segment carries two SPSC rings (one per direction) plus a
// rendezvous arena each. Send is synchronous, memdrv-style: the frame
// is committed to shared memory before Send returns, then the
// completion fires — so outside Send the engine never has a packet
// parked in this driver, and a killed peer surfaces as a refused Send
// the engine cleanly reroutes. Two paths by frame size:
//
//   - inline (≤ DefaultInlineMax): the whole wire frame copies through
//     the ring — one copy in, one copy out into a pooled lease;
//   - rendezvous (anything larger): the frame is written once into an
//     arena region and a 16-byte reference crosses the ring; the
//     receiver wraps the region itself as the packet's lease
//     (core.WrapBuf) — zero intermediate copies, the RDMA-write
//     analogue.
//
// The engine never posts a payload above core.MaxPayload, and the
// default arena holds one region of that largest frame, so every frame
// takes one of the two. An attacher refuses a segment whose arena could
// not hold it.
//
// Rendezvous regions follow a single-owner lease rule: the RECEIVER
// releases the arena slot — the region rides the packet it delivered,
// and freeing happens exactly once, when that packet's lease releases
// (core.WrapBuf's hook), never through the buffer pool. The sender only
// ever reclaims regions its peer has freed, in order. Both the pool
// accounting (wrapped leases count in core.PoolStats) and
// shmring.ArenaStats expose the invariant; drvtest's leak check
// enforces it.
//
// Peer death is loud and exactly once: each side stamps a heartbeat in
// the segment header, and the receive loop — the only reporter — turns
// a peer that closed, or whose heartbeat went stale, into a single
// RailDown after draining what was already published. Everything read
// out of the mapping is the peer's to forge, so a malformed ring record
// — a kind other than the two, a frame above the engine's bound — or a
// frame that does not decode is the same single RailDown, with the
// reason, never a panic. The creator unlinks the segment file and its
// doorbell FIFOs as soon as the peer attaches, so a crashed process
// cannot leak /dev/shm files for established rails; segments orphaned
// before attach are swept, doorbells included, by shmring.ReapOrphans.
package shmdrv

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"newmad/internal/core"
	"newmad/internal/shmring"
)

// ErrClosed reports a send on a closed (or killed) driver.
var ErrClosed = errors.New("shmdrv: closed")

// Defaults for Options zero values, and the fixed inline threshold.
const (
	// DefaultInlineMax is the largest encoded wire frame that copies
	// through the ring instead of taking an arena region.
	DefaultInlineMax = 4 << 10
	// DefaultHeartbeat is the liveness stamp interval.
	DefaultHeartbeat = 50 * time.Millisecond
)

// Options parameterizes a shared-memory rail.
type Options struct {
	// Profile declares the rail characteristics; zero gets DefaultProfile.
	Profile core.Profile
	// Heartbeat is this side's liveness stamp interval; zero gets
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// PeerTimeout is how stale the peer's heartbeat may grow before the
	// rail is declared dead; zero gets the shmring default (2s). Keep it
	// several times the peer's Heartbeat.
	PeerTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Profile == (core.Profile{}) {
		o.Profile = DefaultProfile()
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	return o
}

// ringConfig is the segment geometry every shm rail uses: the shmring
// defaults, whose arena holds one region of maxFrame.
func (o Options) ringConfig() shmring.Config {
	return shmring.Config{PeerTimeout: o.PeerTimeout}
}

// maxFrame is the longest wire frame the engine posts.
const maxFrame = core.HeaderLen + core.MaxPayload

// DefaultProfile is the declared profile for an untuned shm rail:
// sub-microsecond latency, memory-bus bandwidth, and the tcp rail's
// eager threshold. Up to it a message crosses in one wake-up; above it
// the rendezvous handshake adds two more, and on a same-host rail the
// wake-ups, not the single copy, are what a message costs.
func DefaultProfile() core.Profile {
	return core.Profile{
		Name:      "shm",
		Latency:   time.Microsecond,
		Bandwidth: 20e9,
		EagerMax:  64 << 10,
		PIOMax:    4 << 10,
	}
}

// Supported reports whether this host can carry shared-memory rails.
func Supported() bool { return shmring.Supported() }

// Driver is one side of a shared-memory rail.
type Driver struct {
	seg  *shmring.Seg
	opts Options

	mu     sync.Mutex
	rail   int
	ev     core.Events
	bound  chan struct{} // closed once Bind has run
	closed bool
	killed bool

	stop     chan struct{}
	wg       sync.WaitGroup
	downOnce sync.Once

	// txHdr and txParts are Send's scratch for one frame: the encoded
	// header, then the header and payload slices in wire order. The
	// engine posts one packet at a time, and the ring has one producer.
	txHdr   [core.HeaderLen]byte
	txParts [][]byte
}

// Create builds the segment (side 0) and starts this side of the rail.
// The peer joins with Attach using the same name; hand it over however
// the rails were negotiated (the session layer sends it over the
// control connection).
func Create(name string, opts Options) (*Driver, error) {
	opts = opts.withDefaults()
	seg, err := shmring.Create(name, opts.ringConfig())
	if err != nil {
		return nil, err
	}
	return newDriver(seg, opts), nil
}

// Attach joins an existing segment (side 1) and starts this side of
// the rail. The geometry is the creator's to choose, and a segment
// whose arena cannot hold one region of the largest frame is refused:
// its rendezvous path would fail the first such send.
func Attach(name string, opts Options) (*Driver, error) {
	opts = opts.withDefaults()
	seg, err := shmring.Open(name, opts.ringConfig())
	if err != nil {
		return nil, err
	}
	if cfg := seg.Config(); cfg.MaxRegion() < maxFrame {
		seg.Close()
		return nil, fmt.Errorf("shmdrv: attach %s: %d-byte arena cannot hold a %d-byte frame", name, cfg.ArenaBytes, maxFrame)
	}
	return newDriver(seg, opts), nil
}

// New attaches to name if a peer already created it, else creates it —
// the symmetric constructor for callers outside a client/server
// handshake. Both processes may race New on the same name; exactly one
// wins the create and the other attaches.
func New(name string, opts Options) (*Driver, error) {
	var lastErr error
	for i := 0; i < 3; i++ {
		d, err := Create(name, opts)
		if err == nil {
			return d, nil
		}
		lastErr = err
		if d, err := Attach(name, opts); err == nil {
			return d, nil
		} else {
			lastErr = err
		}
	}
	return nil, fmt.Errorf("shmdrv: new %s: %w", name, lastErr)
}

// Pair builds both sides of a rail in one process — two independent
// mappings of one anonymous segment — for tests and benchmarks.
func Pair(opts Options) (*Driver, *Driver, error) {
	name := shmring.RandomName()
	a, err := Create(name, opts)
	if err != nil {
		return nil, nil, err
	}
	b, err := Attach(name, opts)
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

func newDriver(seg *shmring.Seg, opts Options) *Driver {
	d := &Driver{
		seg:   seg,
		opts:  opts,
		bound: make(chan struct{}),
		stop:  make(chan struct{}),
	}
	d.wg.Add(2)
	go d.heartbeat()
	go d.receiver()
	return d
}

// Name implements core.Driver.
func (d *Driver) Name() string {
	return fmt.Sprintf("shm:%s/%d", d.seg.Name(), d.seg.Side())
}

// Profile implements core.Driver.
func (d *Driver) Profile() core.Profile { return d.opts.Profile }

// SegName returns the segment name a peer needs for Attach.
func (d *Driver) SegName() string { return d.seg.Name() }

// Bind implements core.Driver: it releases the receive loop, which
// holds arrivals back until the engine is listening.
func (d *Driver) Bind(rail int, ev core.Events) {
	d.mu.Lock()
	d.rail = rail
	d.ev = ev
	select {
	case <-d.bound:
	default:
		close(d.bound)
	}
	d.mu.Unlock()
}

// Send implements core.Driver. The frame is fully committed to the
// segment — ring record or arena region published — before the
// synchronous completion fires, so an error return always means "not
// accepted" and the engine may safely
// reroute the packet. Blocking happens only against a live, slow peer
// (ring or arena full); a dead or closed peer fails the call instead.
func (d *Driver) Send(p *core.Packet) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	rail, ev := d.rail, d.ev
	d.mu.Unlock()

	wireLen := p.WireLen()
	p.Hdr.PayLen = uint32(wireLen - core.HeaderLen)
	core.EncodeHeader(d.txHdr[:], &p.Hdr)
	parts := p.AppendPayload(append(d.txParts[:0], d.txHdr[:]))
	tx := d.seg.TX()

	var err error
	if wireLen <= DefaultInlineMax {
		err = tx.Push(shmring.RecInline, parts...)
	} else {
		err = d.sendRendezvous(tx, parts, wireLen)
	}
	clear(parts) // drop the payload references
	d.txParts = parts[:0]
	if err != nil {
		return fmt.Errorf("shmdrv: send: %w", err)
	}
	ev.SendComplete(rail)
	return nil
}

// sendRendezvous writes the frame's parts once into an arena region and
// pushes its 16-byte reference. A region carved but not published (the
// ring push failed — peer died under us) is abandoned back to the arena
// so "error = not accepted" holds without leaking the slot.
func (d *Driver) sendRendezvous(tx *shmring.Dir, parts [][]byte, wireLen int) error {
	off, region, err := tx.Alloc(wireLen)
	if err != nil {
		return err
	}
	n := 0
	for _, b := range parts {
		n += copy(region[n:], b)
	}
	var ref [16]byte
	putU64(ref[:], off)
	putU64(ref[8:], uint64(wireLen))
	if err := tx.Push(shmring.RecRendezvous, ref[:]); err != nil {
		tx.Free(off)
		return err
	}
	return nil
}

// heartbeat stamps this side's liveness and, on the creator side,
// unlinks the segment file and its doorbells the moment the peer
// attaches — from then on the rail exists only as the two mappings and
// no crash can leak a file.
func (d *Driver) heartbeat() {
	defer d.wg.Done()
	tick := time.NewTicker(d.opts.Heartbeat)
	defer tick.Stop()
	for {
		d.seg.StampHeartbeat()
		if d.seg.Side() == 0 && !d.seg.Unlinked() && d.seg.PeerAttached() {
			d.seg.Unlink()
		}
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
	}
}

// receiver is the consume loop: it drains the RX ring into packets,
// delivers them in batches through the bound Events sink, and is the
// single authority on peer death — exactly one RailDown, and only after
// everything the peer published has been delivered.
func (d *Driver) receiver() {
	defer d.wg.Done()
	select {
	case <-d.bound:
	case <-d.stop:
		return
	}
	d.mu.Lock()
	rail, ev := d.rail, d.ev
	d.mu.Unlock()

	rx := d.seg.RX()
	var pending []*core.Packet
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if be, ok := ev.(core.BatchEvents); ok && len(pending) > 1 {
			batch := core.GetEventBatch()
			for i, pkt := range pending {
				pending[i] = nil
				batch.Add(core.DriverEvent{Kind: core.EvArrive, Pkt: pkt})
			}
			be.DeliverBatch(rail, batch)
		} else {
			for i, pkt := range pending {
				pending[i] = nil
				ev.Arrive(rail, pkt)
			}
		}
		pending = pending[:0]
	}
	defer flush()

	// bad is the first frame the peer sent that failed to decode; like a
	// malformed ring record (which PeerGone reports), it ends the rail.
	var bad error
	pop := func() bool {
		return rx.TryPop(func(kind uint32, a, b []byte) {
			if bad == nil {
				bad = d.consume(&pending, kind, a, b)
			}
		}) && bad == nil
	}
	// busy marks a pass that delivered: a peer that just published is
	// alive, so its liveness is checked only when a wait brought nothing.
	busy := false
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		if pop() {
			busy = true
			if len(pending) >= 32 {
				flush()
			}
			continue
		}
		flush()
		err := bad
		if err == nil {
			var gone bool
			if !busy {
				gone, err = d.seg.PeerGone()
			}
			if !gone {
				busy = false
				rx.WaitData(0)
				continue
			}
			// Drain what was already published before reporting: records
			// may have landed between the last TryPop and the check.
			for pop() {
			}
			flush()
		}
		select {
		case <-d.stop: // local close racing the peer's: stay silent
		default:
			d.downOnce.Do(func() { ev.RailDown(rail, fmt.Errorf("shmdrv: %w", err)) })
		}
		return
	}
}

// consume turns one ring record into a pending arrival. It fails on a
// frame that does not decode, and on a record the peer could not have
// sent: a kind other than inline or rendezvous, an inline frame above
// DefaultInlineMax, a reference that is not 16 bytes, a frame longer
// than maxFrame, or a region that is out of bounds or not awaiting
// delivery.
func (d *Driver) consume(pending *[]*core.Packet, kind uint32, a, b []byte) error {
	n := len(a) + len(b)
	switch kind {
	case shmring.RecInline:
		if n > DefaultInlineMax {
			return fmt.Errorf("corrupt inline record from peer: %d-byte frame", n)
		}
		f := core.GetBuf(n)
		copy(f.B, a)
		copy(f.B[len(a):], b)
		return d.arrive(pending, f)

	case shmring.RecRendezvous:
		if n != 16 {
			return fmt.Errorf("corrupt rendezvous record from peer: %d-byte reference", n)
		}
		var ref [16]byte
		copy(ref[:], a)
		copy(ref[len(a):], b)
		off := getU64(ref[:])
		size := getU64(ref[8:])
		if size > maxFrame {
			return fmt.Errorf("corrupt rendezvous record from peer: %d-byte frame exceeds %d", size, maxFrame)
		}
		rx := d.seg.RX()
		region, err := rx.Region(off, int(size))
		if err != nil {
			return fmt.Errorf("corrupt rendezvous record from peer: %w", err)
		}
		// The region rides the packet: its lease releases through the
		// WrapBuf hook — receiver frees the arena slot, holding the
		// mapping alive until then.
		d.seg.Retain()
		f := core.WrapBuf(region, func() {
			rx.Free(off)
			d.seg.Unref()
		})
		return d.arrive(pending, f)
	}
	return fmt.Errorf("corrupt ring record from peer: unknown kind %d", kind)
}

// arrive decodes one full frame lease into a pending packet. Ownership
// of the lease passes to the packet (UnmarshalFrame releases it on
// error).
func (d *Driver) arrive(pending *[]*core.Packet, f *core.Buf) error {
	pkt, err := core.UnmarshalFrame(f)
	if err != nil {
		return fmt.Errorf("corrupt frame from peer: %w", err)
	}
	*pending = append(*pending, pkt)
	return nil
}

// Kill abandons this side the way a crash would: goroutines stop, the
// peer sees heartbeats cease (no graceful close flag), and local Sends
// are refused — the engine's cue to reroute onto surviving rails. Test
// hook for failover scenarios; Close afterwards still reclaims local
// resources.
func (d *Driver) Kill() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.killed = true
	d.mu.Unlock()
	close(d.stop)
	d.seg.Kill()
	d.wg.Wait()
}

// Close implements core.Driver: graceful shutdown. The peer observes a
// closed side state (loud, immediate ErrPeerGone) rather than a
// heartbeat timeout. Idempotent; safe after Kill.
func (d *Driver) Close() error {
	d.mu.Lock()
	already := d.closed
	d.closed = true
	d.mu.Unlock()
	if !already {
		close(d.stop)
	}
	d.seg.Close()
	d.wg.Wait()
	return nil
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	_ = b[7]
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

var _ core.Driver = (*Driver)(nil)
