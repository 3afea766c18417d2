// Package memdrv provides an in-process loopback driver pair used by unit
// and integration tests: two engines in one process exchange marshalled
// packets, with optional fault injection. The driver is event-driven —
// completions and arrivals are delivered synchronously from Send — which
// is safe against the engine because driver events route into the gate's
// progress domain and are deferred there whenever the domain is busy.
package memdrv

import (
	"errors"
	"sync"

	"newmad/internal/core"
)

// ErrDown reports a send on a driver that was taken down.
var ErrDown = errors.New("memdrv: down")

// Driver is one end of an in-memory rail.
type Driver struct {
	name string
	peer *Driver

	mu        sync.Mutex
	down      bool
	dropNext  int // silently lose the next N sends after accepting them
	failNext  int // report SendFailed for the next N sends
	failAfter int // countdown: when it hits 1, that send fails
	hold      bool
	held      []heldSend // sends buffered while hold is set
	// heldSpare recycles the drained held queue's backing array so
	// hold/release cycles don't reallocate it.
	heldSpare []heldSend
	prebind   []*core.Buf // arrivals buffered until Bind provides Events

	rail int
	ev   core.Events

	profile core.Profile
}

// heldSend is one send whose events are buffered by HoldCompletions.
// frame is the arena lease carrying the marshalled wire bytes; its
// ownership passes to the peer on delivery, or back to the arena if the
// send is dropped.
type heldSend struct {
	pkt   *core.Packet
	err   error
	frame *core.Buf
	drop  bool
}

// Pair returns two connected drivers with the given profile.
func Pair(name string, profile core.Profile) (*Driver, *Driver) {
	a := &Driver{name: name + ".a", profile: profile}
	b := &Driver{name: name + ".b", profile: profile}
	a.peer, b.peer = b, a
	return a, b
}

// DefaultProfile is a convenient profile for tests.
func DefaultProfile() core.Profile {
	return core.Profile{Name: "mem", Latency: 0, Bandwidth: 1 << 30, EagerMax: 32 << 10, PIOMax: 8 << 10}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return "mem:" + d.name }

// Profile implements core.Driver.
func (d *Driver) Profile() core.Profile { return d.profile }

// Bind implements core.Driver. Packets that arrived before the driver
// was bound (the peer sent first) are delivered now.
func (d *Driver) Bind(rail int, ev core.Events) {
	d.mu.Lock()
	d.rail = rail
	d.ev = ev
	prebind := d.prebind
	d.prebind = nil
	d.mu.Unlock()
	for _, f := range prebind {
		d.deliver(f)
	}
}

// Send implements core.Driver: the packet is marshalled immediately (so
// later buffer reuse is safe) into an arena lease and delivered
// synchronously — the arrival to the peer's Events, then the completion
// (or injected failure) to this end's. Arrival-first keeps the rail
// FIFO: anything the completion triggers (the engine kicking the next
// packet) cannot reach the peer before this packet did. A dropped
// send's lease is released here: nobody will ever consume it.
func (d *Driver) Send(p *core.Packet) error {
	d.mu.Lock()
	if d.down {
		d.mu.Unlock()
		return ErrDown
	}
	drop := d.dropNext > 0
	if drop {
		d.dropNext--
	}
	var failErr error
	if d.failNext > 0 {
		d.failNext--
		failErr = ErrDown
		drop = true
	}
	if d.failAfter > 0 {
		d.failAfter--
		if d.failAfter == 0 {
			failErr = ErrDown
			drop = true
		}
	}
	f := core.GetBuf(p.WireLen())
	p.EncodeTo(f.B)
	if d.hold {
		d.held = append(d.held, heldSend{pkt: p, err: failErr, frame: f, drop: drop})
		d.mu.Unlock()
		return nil
	}
	rail, ev := d.rail, d.ev
	d.mu.Unlock()
	if drop {
		f.Release()
	} else {
		d.peer.deliver(f)
	}
	if failErr != nil {
		ev.SendFailed(rail, p, failErr)
	} else {
		ev.SendComplete(rail)
	}
	return nil
}

// HoldCompletions buffers subsequent sends' events instead of delivering
// them, keeping the rail busy from the engine's point of view. This is
// the deterministic way for tests to open the paper's optimization
// window: work accumulates in the backlog while the "NIC" is held, and
// ReleaseCompletions plays the NIC going idle again.
func (d *Driver) HoldCompletions() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hold = true
}

// ReleaseCompletions delivers every held send in order — each packet's
// arrival before its completion, so packets the completion triggers
// cannot overtake it on the rail — and then resumes synchronous
// delivery. hold stays set until the queue is fully drained, so a
// concurrent Send cannot leapfrog older held packets; it lands in the
// queue and is delivered by this drain in order.
func (d *Driver) ReleaseCompletions() {
	for {
		d.mu.Lock()
		if len(d.held) == 0 {
			d.hold = false
			d.mu.Unlock()
			return
		}
		held := d.held
		d.held = d.heldSpare[:0]
		d.heldSpare = nil
		rail, ev := d.rail, d.ev
		d.mu.Unlock()
		for i, h := range held {
			held[i] = heldSend{}
			if h.drop {
				h.frame.Release()
			} else {
				d.peer.deliver(h.frame)
			}
			if h.err != nil {
				ev.SendFailed(rail, h.pkt, h.err)
			} else {
				ev.SendComplete(rail)
			}
		}
		d.mu.Lock()
		if d.heldSpare == nil {
			d.heldSpare = held[:0]
		}
		d.mu.Unlock()
	}
}

// deliver hands a marshalled frame to this end's engine, buffering it if
// no Events sink is bound yet. Lease ownership passes to the decoded
// packet, which the consuming engine releases once the arrival has been
// absorbed.
func (d *Driver) deliver(f *core.Buf) {
	d.mu.Lock()
	if d.ev == nil {
		d.prebind = append(d.prebind, f)
		d.mu.Unlock()
		return
	}
	rail, ev := d.rail, d.ev
	d.mu.Unlock()
	pkt, err := core.UnmarshalFrame(f)
	if err != nil {
		panic("memdrv: corrupt packet: " + err.Error())
	}
	ev.Arrive(rail, pkt)
}

// Close implements core.Driver.
func (d *Driver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = true
	return nil
}

// SetDown injects a rail failure: subsequent Sends return ErrDown.
func (d *Driver) SetDown(down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = down
}

// FailNextSend makes the next posted send report SendFailed instead of
// completing (packet accepted, then lost with an error).
func (d *Driver) FailNextSend() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failNext++
}

// FailAfterSends arms a deterministic failure: the n-th Send from now
// (1-based) reports SendFailed; earlier ones succeed.
func (d *Driver) FailAfterSends(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failAfter = n
}

// DropNextSends makes the next n sends complete successfully but never
// arrive (silent loss on the wire).
func (d *Driver) DropNextSends(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropNext += n
}

var _ core.Driver = (*Driver)(nil)
