package simdrv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"newmad/internal/core"
	"newmad/internal/relnet"
	"newmad/internal/simnet"
)

// DefaultSimMTU is the datagram size cap for relnet over simulated
// NICs. Simulated links are not physically packetized, so the MTU only
// sets the retransmission granularity: small enough that one loss does
// not resend megabytes, big enough that per-datagram NIC overheads stay
// negligible.
const DefaultSimMTU = 32 << 10

// Transport adapts a simulated NIC to relnet.Transport: datagrams ride
// the NIC as wire buffers, chaos-injected loss silently discards them
// (releasing the lease — no RailDown latch, recovery is relnet's job),
// and an up→down NIC transition surfaces through the failure callback
// so the rail above still fails promptly and exactly once when the
// link genuinely dies.
//
// This is the deliberate contrast with the raw simdrv Driver, which has
// no retransmit machinery and must declare the rail dead on the first
// in-flight drop.
//
// Sends are serialized through a FIFO: the next datagram is issued to
// the NIC only when the previous one's local send completes. The
// reliability layer above fires a whole window back-to-back, and the
// NIC model's two send paths (PIO for small packets, DMA through the
// shared bus for large ones) would otherwise let a small segment
// overtake queued DMA transfers — reordering a clean link and tripping
// spurious fast retransmits. The raw driver never sees this because
// the engine posts one packet per rail at a time; the FIFO gives the
// datagram path the same in-order property.
type Transport struct {
	nic    *simnet.NIC
	mtu    int
	closed atomic.Bool

	mu    sync.Mutex
	queue []*core.Buf
	busy  bool
}

// NewTransport wraps nic; mtu <= 0 gets DefaultSimMTU.
func NewTransport(nic *simnet.NIC, mtu int) *Transport {
	if mtu <= 0 {
		mtu = DefaultSimMTU
	}
	return &Transport{nic: nic, mtu: mtu}
}

// NewReliable builds a relnet-wrapped rail over nic. The reliability
// layer always runs on the NIC's host — the core.Clock that host's
// engine uses, replacing any cfg.Clock — so its retransmit timers are
// cancellable virtual-time timers, and its RTO defaults derive from the
// NIC profile. Chaos loss on the link becomes survivable; a downed NIC
// still fails the rail loudly.
func NewReliable(nic *simnet.NIC, cfg relnet.Config) *relnet.Driver {
	cfg.Clock = nic.Host()
	return relnet.Wrap(NewTransport(nic, 0), cfg)
}

// Name implements relnet.Transport.
func (t *Transport) Name() string {
	return fmt.Sprintf("sim:%s/%s", t.nic.Host().Name, t.nic.Params().Name)
}

// Profile implements relnet.Transport (same derivation as the raw
// driver).
func (t *Transport) Profile() core.Profile {
	p := t.nic.Params()
	return core.Profile{
		Name:      p.Name,
		Latency:   p.WireLatency + p.SendOverhead + p.RecvCost + p.PollCost,
		Bandwidth: p.Bandwidth,
		EagerMax:  p.EagerMax,
		PIOMax:    p.PIOMax,
	}
}

// MTU implements relnet.Transport.
func (t *Transport) MTU() int { return t.mtu }

// SetRecv implements relnet.Transport: ingress hands the wire lease to
// the reliability layer; a dropped arrival just returns its lease —
// the sender's retransmit timer owns recovery.
func (t *Transport) SetRecv(fn func(*core.Buf)) {
	t.nic.SetDeliver(func(meta any) { fn(meta.(*core.Buf)) })
	t.nic.SetOnDrop(func(meta any) {
		if f, ok := meta.(*core.Buf); ok {
			f.Release()
		}
	})
}

// SetFail implements relnet.Transport: a NIC taken down (chaos rail
// death, partition) is a real link failure, reported upward instead of
// burning the whole retry budget against a dead interface.
func (t *Transport) SetFail(fn func(error)) {
	t.nic.SetOnDown(func() { fn(simnet.ErrNICDown) })
}

// Send implements relnet.Transport: enqueue if a send is in flight,
// else issue to the NIC. A NIC refusal (down link) is a loss to the
// layer above, which also hears about the death through SetFail.
func (t *Transport) Send(f *core.Buf) error {
	if t.closed.Load() {
		f.Release()
		return ErrClosed
	}
	t.mu.Lock()
	if t.busy {
		t.queue = append(t.queue, f)
		t.mu.Unlock()
		return nil
	}
	t.busy = true
	t.mu.Unlock()
	return t.issue(f)
}

// issue hands one datagram to the NIC. On refusal the whole queue is a
// loss: the NIC is down, and relnet owns recovery.
func (t *Transport) issue(f *core.Buf) error {
	if err := t.nic.Send(len(f.B), f, t.sent); err != nil {
		f.Release()
		t.mu.Lock()
		q := t.queue
		t.queue, t.busy = nil, false
		t.mu.Unlock()
		for _, qf := range q {
			qf.Release()
		}
		return err
	}
	return nil
}

// sent is the NIC's local-send-complete callback: issue the next queued
// datagram, if any.
func (t *Transport) sent() {
	t.mu.Lock()
	if len(t.queue) == 0 {
		t.busy = false
		t.mu.Unlock()
		return
	}
	f := t.queue[0]
	t.queue = t.queue[1:]
	t.mu.Unlock()
	t.issue(f)
}

// Close implements relnet.Transport. The simulated world is shared, so
// nothing is torn down; later sends are refused and queued datagrams
// released.
func (t *Transport) Close() error {
	t.closed.Store(true)
	t.mu.Lock()
	q := t.queue
	t.queue = nil
	t.mu.Unlock()
	for _, f := range q {
		f.Release()
	}
	return nil
}

// NIC returns the underlying simulated NIC (chaos targeting in tests).
func (t *Transport) NIC() *simnet.NIC { return t.nic }

var _ relnet.Transport = (*Transport)(nil)
