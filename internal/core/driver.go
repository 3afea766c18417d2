package core

import "time"

// Profile describes a rail's performance characteristics, either declared
// by the driver or measured by the sampling module at initialization time
// (paper §3.4: strategies use "data sampling and driver capabilities
// provided by the underlying layer").
type Profile struct {
	// Name labels the underlying network ("myri10g", "tcp0", ...).
	Name string
	// Latency is the one-way small-message latency. With Bandwidth it
	// is the rail's model for placement too: Rail.ETA predicts when a
	// packet posted now would arrive, and the stripping strategies send
	// pending small segments on whichever idle rail that puts first.
	Latency time.Duration
	// Bandwidth is the sustained large-transfer rate in bytes per second.
	// Besides weighting split shares, it paces the rail's predicted
	// drain: each post keeps the wire busy for the packet's length at
	// this rate (see Rail.ETA).
	Bandwidth float64
	// EagerMax is the largest payload to send eagerly; larger segments go
	// through the rendezvous protocol. Values above MaxPayload act as
	// MaxPayload.
	EagerMax int
	// PIOMax is the largest wire packet the driver sends with programmed
	// I/O. Strategies keep rendezvous chunks above this so large
	// transfers stay on the DMA path (paper §3.4).
	PIOMax int
	// AggMax is the largest aggregated payload, record headers included,
	// a strategy builds for this rail, and so also the largest segment
	// it aggregates. Zero means the engine's Config.AggThreshold, the
	// paper's copy-vs-resend break-even. A rail whose per-packet cost
	// dwarfs the copy — tcp's writev syscall, which copies the bytes
	// anyway — declares its eager frame here instead (tcpdrv derives it
	// from EagerMax). A cap below AggThreshold is safe: a segment the
	// rail does not gather leaves as a packet of its own. Values above
	// MaxPayload act as MaxPayload.
	AggMax int
}

// Events is the engine-side callback interface a driver reports into.
// Each rail's Events value routes into the owning gate's progress domain
// (see internal/progress): callbacks may be invoked from any goroutine,
// including synchronously from within Send, and the engine serializes
// them per gate. Callbacks never block; when the gate's domain is busy
// the event is deferred to the current owner.
type Events interface {
	// SendComplete reports that the packet posted on rail is fully sent
	// and the rail's send track is idle again.
	SendComplete(rail int)
	// SendFailed reports that the posted packet could not be delivered;
	// the rail should be considered down.
	SendFailed(rail int, p *Packet, err error)
	// Arrive delivers an incoming packet on rail.
	Arrive(rail int, p *Packet)
	// RailDown reports an asynchronous rail failure detected outside a
	// posted send — typically the receive side of the connection dying.
	// The engine marks the rail down, recovers what it safely can, and
	// fails the gate's outstanding requests once no rails remain.
	RailDown(rail int, err error)
}

// BatchEvents is the optional batched extension of Events: drivers that
// gather several events before handing them over (a receive loop that
// drained a ring, a reliability layer's timer pass) may deliver them as
// one EventBatch, costing a single progress
// domain acquisition for the whole batch instead of one wakeup per
// packet. Ownership of the batch transfers with the call; the sink
// recycles it after dispatch. The engine's rail event sink implements
// this; drivers should type-assert and fall back to per-event delivery.
type BatchEvents interface {
	Events
	// DeliverBatch dispatches the batch's events in order, as if each
	// had been delivered through the matching Events callback.
	DeliverBatch(rail int, batch *EventBatch)
}

// Driver is the transmit-layer interface: one point-to-point rail to a
// peer. The engine posts at most one outstanding Send per driver and
// waits for SendComplete before posting the next, mirroring
// NewMadeleine's one-packet-per-track discipline. Drivers are
// event-driven: every completion, arrival and failure is reported
// through Events as it happens — from Send itself or from the driver's
// own goroutines — and the engine never calls into a driver to make
// progress. Close may wait for those goroutines, so a driver must not be
// closed synchronously from inside one of its own event callbacks.
type Driver interface {
	// Name identifies the driver instance.
	Name() string
	// Profile reports the rail's characteristics.
	Profile() Profile
	// Bind attaches the engine callbacks; called once before any Send.
	Bind(rail int, ev Events)
	// Send posts one packet. The payload must not be modified until
	// SendComplete. An error means the packet was not accepted (rail
	// down) and no completion will follow. Send may invoke Events
	// callbacks synchronously before returning.
	Send(p *Packet) error
	// Close releases driver resources.
	Close() error
}
