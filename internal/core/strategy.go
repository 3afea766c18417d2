package core

// Strategy is an optimizing scheduler: it rewrites the backlog of
// application requests into packets, one decision at a time, each time a
// rail becomes idle. This is the paper's pluggable middle layer — the
// engine never decides what to send, only when a decision is needed.
//
// Contract: the engine calls Submit when the application adds a segment,
// and Schedule whenever rail r is idle and the backlog may have work
// (after a submit, a send completion, or a rendezvous grant). Schedule
// must return a packet destined for r, or nil to leave r idle. Strategies
// run owning the gate's progress domain and must not block. One strategy
// instance is shared by every gate of an engine and gates progress
// concurrently, so calls for different gates may overlap: stateless
// strategies need nothing special, but a strategy holding state that
// outlives one call (e.g. per-body split plans) must synchronize it.
type Strategy interface {
	// Name identifies the strategy by its registry name ("fifo",
	// "aggreg", "balance", "aggrail", "split", "split-iso", "split-dyn",
	// "split-dyn-adaptive", "hedge"; see strategy.Names).
	Name() string
	// Submit registers a new outgoing segment in the backlog.
	Submit(b *Backlog, u *Unit)
	// Schedule picks the next packet for idle rail r, or returns nil.
	Schedule(b *Backlog, r *Rail) *Packet
}

// Discarder is an optional Strategy extension. The engine calls Discard
// for each granted body it abandons (gate death), so strategies that
// keep per-body state — like the split rows' pinned share plans — can
// release it instead of leaking entries keyed by units that will never
// be scheduled again.
type Discarder interface {
	Discard(b *Backlog, u *Unit)
}

// EagerOK reports whether unit u fits rail r's eager path, EagerMax
// capped at MaxPayload; larger units must go through the rendezvous
// protocol (Backlog.StartRdv).
func EagerOK(u *Unit, r *Rail) bool { return u.Len() <= min(r.Profile().EagerMax, MaxPayload) }
