// Package simdrv adapts a simulated NIC (internal/simnet) to the engine's
// transmit-layer Driver interface. Packets are marshalled to wire form at
// Send time — the same codec the TCP driver uses — so the simulation
// moves real bytes end to end and the application's buffer-reuse contract
// (stable until SendComplete) holds exactly as it would on hardware.
package simdrv

import (
	"errors"
	"fmt"
	"sync/atomic"

	"newmad/internal/core"
	"newmad/internal/simnet"
)

// ErrClosed reports a send on a closed driver.
var ErrClosed = errors.New("simdrv: closed")

// Driver is one rail backed by a simulated NIC.
type Driver struct {
	nic  *simnet.NIC
	rail int
	ev   core.Events
	// closed is atomic: the engine retires a failed rail (and closes its
	// driver) from its own goroutine, concurrently with the owner's Close.
	closed atomic.Bool
	// downReported latches the one RailDown report this driver may make:
	// however the failure is observed (NIC taken down by chaos, packets
	// dropped at a dead interface), the engine hears about it exactly
	// once. A rail that failed stays failed; flapping back up does not
	// resurrect it.
	downReported atomic.Bool
	// onComplete is the per-driver completion callback, built once at
	// Bind so each Send doesn't allocate a fresh closure.
	onComplete func()
}

// New wraps nic as a Driver. Bind must be called (by Gate.AddRail) before
// sending; the peer NIC's driver must also be bound before packets first
// arrive there.
func New(nic *simnet.NIC) *Driver {
	return &Driver{nic: nic}
}

// Name implements core.Driver.
func (d *Driver) Name() string {
	return fmt.Sprintf("sim:%s/%s", d.nic.Host().Name, d.nic.Params().Name)
}

// Profile implements core.Driver: characteristics derived from the NIC
// model (a declared profile; sampling can refine it).
func (d *Driver) Profile() core.Profile {
	p := d.nic.Params()
	return core.Profile{
		Name:      p.Name,
		Latency:   p.WireLatency + p.SendOverhead + p.RecvCost + p.PollCost,
		Bandwidth: p.Bandwidth,
		EagerMax:  p.EagerMax,
		PIOMax:    p.PIOMax,
	}
}

// Bind implements core.Driver. Besides ingress delivery it wires the
// NIC's fault hooks: a NIC taken down (chaos rail flap) is surfaced to
// the engine as RailDown exactly once — previously a downed simulated
// NIC dropped packets silently and the receiving engine parked forever
// in virtual time — and every dropped arrival's wire lease goes back to
// the arena instead of leaking.
func (d *Driver) Bind(rail int, ev core.Events) {
	d.rail = rail
	d.ev = ev
	d.onComplete = func() { d.ev.SendComplete(d.rail) }
	d.nic.SetDeliver(func(meta any) {
		pkt, err := core.UnmarshalFrame(meta.(*core.Buf))
		if err != nil {
			panic("simdrv: corrupt wire packet: " + err.Error())
		}
		d.ev.Arrive(d.rail, pkt)
	})
	d.nic.SetOnDown(func() { d.reportDown(simnet.ErrNICDown) })
	d.nic.SetOnDrop(func(meta any) {
		if f, ok := meta.(*core.Buf); ok {
			f.Release()
		}
		// Without retransmit machinery a lost packet is unrecoverable:
		// declare the rail failed so the engine fails affected requests
		// over to surviving rails instead of hoping a deadline fires.
		d.reportDown(errors.New("simdrv: packet dropped in flight"))
	})
}

// reportDown surfaces an asynchronous NIC failure to the engine, at most
// once for the driver's lifetime.
func (d *Driver) reportDown(cause error) {
	if d.ev == nil || !d.downReported.CompareAndSwap(false, true) {
		return
	}
	d.ev.RailDown(d.rail, fmt.Errorf("%w: %s", core.ErrRailDown, cause))
}

// Send implements core.Driver: the packet is framed into an arena lease
// that travels through the simulation as the message metadata; the
// receiving engine releases it once the arrival is absorbed.
func (d *Driver) Send(p *core.Packet) error {
	if d.closed.Load() {
		return fmt.Errorf("%w: %s", core.ErrRailDown, ErrClosed)
	}
	f := core.GetBuf(p.WireLen())
	n := p.EncodeTo(f.B)
	err := d.nic.Send(n, f, d.onComplete)
	if err != nil {
		f.Release()
		return fmt.Errorf("%w: %s", core.ErrRailDown, err)
	}
	return nil
}

// Close implements core.Driver: later sends are refused. Idempotent. The
// simulated world is shared with other NICs, so nothing is torn down;
// packets already in flight still arrive at the peer.
func (d *Driver) Close() error {
	d.closed.Store(true)
	return nil
}

// NIC returns the underlying simulated NIC (for tests and fault
// injection: the chaos layer flips NIC state, and the hooks installed at
// Bind translate that into engine-visible RailDown events).
func (d *Driver) NIC() *simnet.NIC { return d.nic }

var _ core.Driver = (*Driver)(nil)
