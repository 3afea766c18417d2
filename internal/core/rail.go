package core

import (
	"fmt"
	"sync/atomic"
)

// Rail is one network path of a gate: a driver plus its track state. The
// engine keeps at most one packet in flight per rail and consults the
// strategy the moment the rail goes idle, which is the paper's
// NIC-activity-driven scheduling.
//
// The busy/down flags and the counters are atomics so strategies (which
// run owning the gate's progress domain) and external observers (tests,
// tooling) can read them without taking any lock; current is mutated only
// under the gate's domain.
type Rail struct {
	gate    *Gate
	index   int
	drv     Driver
	profile atomic.Pointer[Profile]
	busy    atomic.Bool
	down    atomic.Bool
	current *Packet // in-flight packet; gate-domain owned
	// retiring marks a MarkDown'd rail whose healthy driver still owes
	// the in-flight packet's completion; gate-domain owned.
	retiring bool
	// orphan is the in-flight packet of a rail that failed outside the
	// send path (railFailure): the driver may still be writing it, so it
	// is released, and its requests completed, only when the driver's
	// late completion for it drains (or at Engine.Close). Gate-domain
	// owned.
	orphan *Packet
	// est models observed latency/bandwidth online; fed by sendComplete.
	est *Estimator
	// freeAt is the engine-clock time, in ns, at which the rail's wire is
	// predicted to have drained everything posted on it: post advances it
	// by each packet's length over the profiled bandwidth. Busy says only
	// whether the driver still holds a packet, and a driver may report
	// completion while the bytes are still queued below it (a socket
	// buffer); freeAt tells a strategy how far behind the rail is. Zero
	// on a fresh rail and after the rail goes down; gate-domain owned.
	freeAt int64

	// stats
	pktsSent  atomic.Uint64
	bytesSent atomic.Uint64
}

// Index returns the rail's position within its gate.
func (r *Rail) Index() int { return r.index }

// Gate returns the owning gate.
func (r *Rail) Gate() *Gate { return r.gate }

// Driver returns the transmit-layer driver.
func (r *Rail) Driver() Driver { return r.drv }

// Profile returns the rail's performance profile. Initially the driver's
// declared profile; SetProfile replaces it with sampled figures.
func (r *Rail) Profile() Profile { return *r.profile.Load() }

// SetProfile installs a (typically sampled) profile used by strategies
// for rail selection and stripping ratios. The estimator's optimistic
// prior follows the profile.
func (r *Rail) SetProfile(p Profile) {
	r.profile.Store(&p)
	r.est.SetPrior(p.Latency, p.Bandwidth)
}

// Estimator returns the rail's online latency/bandwidth model.
func (r *Rail) Estimator() *Estimator { return r.est }

// Busy reports whether a packet is in flight on the rail.
func (r *Rail) Busy() bool { return r.busy.Load() }

// Down reports whether the rail has been marked failed.
func (r *Rail) Down() bool { return r.down.Load() }

// markDown flags the rail failed and forgets its predicted backlog.
// Caller owns the gate's domain.
func (r *Rail) markDown() {
	r.down.Store(true)
	r.freeAt = 0
}

// ETA predicts the engine-clock time, in ns, at which an n-byte packet
// posted on the rail now would reach the peer: once the rail has drained
// what it was already given, the profile's Latency plus n bytes at its
// Bandwidth. Comparing two rails' ETAs tells which would deliver the
// packet first. Call owning the gate's domain, as a strategy's Schedule
// does.
func (r *Rail) ETA(n int) int64 {
	prof := r.profile.Load()
	return max(r.gate.eng.clock.Now(), r.freeAt) + int64(prof.Latency) + wireNs(n, prof.Bandwidth)
}

// wireNs is the time, in ns, n bytes take at bw bytes per second; zero
// when the bandwidth is unknown.
func wireNs(n int, bw float64) int64 {
	if bw <= 0 {
		return 0
	}
	return int64(float64(n) * 1e9 / bw)
}

// MarkDown manually disables the rail; pending and future work is routed
// to the remaining rails. An in-flight packet is left to complete (the
// rail is healthy, just administratively retired): its driver stays open
// until that completion drains, then sendComplete retires it.
// Disabling the last rail fails the gate's outstanding requests.
func (r *Rail) MarkDown() {
	g := r.gate
	g.dom.Lock()
	defer g.dom.Unlock()
	r.markDown()
	if r.current != nil {
		r.retiring = true
		return // sendComplete retires the rail once the packet drains
	}
	g.eng.retireRail(r)
	if g.upRails() == 0 {
		g.eng.failGate(g, ErrRailDown)
	}
}

// releaseOrphan retires p if it is the packet railFailure left in
// flight on the rail, now that the driver no longer reads it: its
// requests, doomed since the failure, complete once no other packet of
// theirs is in flight, and its lease returns to the arena. Caller owns
// the gate's domain.
func (r *Rail) releaseOrphan(p *Packet) {
	if p == nil || p != r.orphan {
		return
	}
	r.orphan = nil
	for _, ref := range p.senders {
		if ref.req != nil {
			ref.req.pendingPkts--
			ref.req.maybeComplete()
		}
	}
	p.Release()
}

// Stats reports packets and bytes sent on this rail.
func (r *Rail) Stats() (pkts, bytes uint64) { return r.pktsSent.Load(), r.bytesSent.Load() }

// String implements fmt.Stringer.
func (r *Rail) String() string {
	return fmt.Sprintf("rail%d(%s busy=%v down=%v)", r.index, r.Profile().Name, r.Busy(), r.Down())
}

// railEvents adapts driver callbacks to engine handlers for one rail,
// routing each event into the owning gate's progress domain so events on
// different gates never contend and drivers may deliver synchronously
// from Send without deadlocking. The hot events (SendComplete, Arrive,
// DeliverBatch) go through Post2 with package-level handlers, so
// delivering them allocates nothing; the cold failure events keep plain
// closures.
type railEvents struct{ r *Rail }

var handleSendComplete = func(a, _ any) {
	r := a.(*Rail)
	r.gate.eng.sendComplete(r)
}

// handleArrive dispatches an inbound packet and then releases it: every
// retention path inside arrive (unexpected buffering, receive landing,
// rendezvous bookkeeping) copies what it keeps, so the wire packet and
// its read-buffer lease go back to the pools here on every outcome.
var handleArrive = func(a, b any) {
	r := a.(*Rail)
	p := b.(*Packet)
	r.gate.eng.arrive(r, p)
	p.Release()
}

// handleEventBatch dispatches a driver's batched events in order under a
// single domain acquisition, then recycles the batch.
var handleEventBatch = func(a, b any) {
	r := a.(*Rail)
	batch := b.(*EventBatch)
	eng := r.gate.eng
	for i := range batch.events {
		ev := batch.events[i]
		batch.events[i] = DriverEvent{}
		switch ev.Kind {
		case EvSendComplete:
			eng.sendComplete(r)
		case EvSendFailed:
			eng.sendFailed(r, ev.Pkt, ev.Err)
		case EvArrive:
			eng.arrive(r, ev.Pkt)
			ev.Pkt.Release()
		case EvRailDown:
			eng.railFailure(r, ev.Err)
		}
	}
	putEventBatch(batch)
}

func (e railEvents) SendComplete(rail int) {
	r := e.r
	r.gate.dom.Post2(handleSendComplete, r, nil)
}

func (e railEvents) SendFailed(rail int, p *Packet, err error) {
	r := e.r
	r.gate.dom.Post(func() { r.gate.eng.sendFailed(r, p, err) })
}

func (e railEvents) Arrive(rail int, p *Packet) {
	r := e.r
	r.gate.dom.Post2(handleArrive, r, p)
}

func (e railEvents) RailDown(rail int, err error) {
	r := e.r
	r.gate.dom.Post(func() { r.gate.eng.railFailure(r, err) })
}

// DeliverBatch implements BatchEvents: the whole batch crosses into the
// gate's progress domain as one deferred entry — one wakeup, one lock
// acquisition — and its events dispatch in order.
func (e railEvents) DeliverBatch(rail int, batch *EventBatch) {
	r := e.r
	r.gate.dom.Post2(handleEventBatch, r, batch)
}

var _ BatchEvents = railEvents{}
