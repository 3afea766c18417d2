package strategy

import (
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/core"
)

// Hedge wraps another strategy with speculative duplicate sends: when the
// inner strategy schedules a small single-segment message on a rail (the
// primary) and the message has not completed within a stagger delay, the
// same payload is raced down another rail as a duplicate under a reserved
// hedge tag. The receiver folds duplicates back into the origin (tag,
// msgID) channel where ordinary msgID matching drops the losing copy, so
// a late loser can never double-complete a receive; the sender cancels
// the losing duplicate via Request.Cancel the moment the primary
// completes.
//
// The stagger is quantile-derived: the primary rail's online completion-
// time estimator answers "how long do sends on this rail usually take",
// and the duplicate fires only past that quantile — so under healthy
// traffic almost no duplicates are sent, while jittered or degraded
// rails trigger the race exactly on the slow tail. Duplicate payloads
// are private copies (the application may reuse its buffer the instant
// the primary completes, while the loser's driver is still reading), and
// duplicates never ride the primary's request: byte accounting on the
// user's request stays exact.
//
// The stagger timer runs on the engine clock, so hedging works the same
// in wall time and in DES virtual time. Hedged sizes must stay within the
// rails' eager regime: duplicates are always sent eagerly, never through
// rendezvous. The size cap (the engine's AggThreshold) guarantees that.
type Hedge struct {
	inner   core.Strategy
	minStag time.Duration
	maxStag time.Duration

	gates sync.Map // *core.Backlog -> *hedgeGate

	eligible  atomic.Uint64
	hedged    atomic.Uint64
	cancelled atomic.Uint64
	primBytes atomic.Uint64
	dupBytes  atomic.Uint64
}

// hedgeGate is the per-gate duplicate queue; all fields are owned by that
// gate's progress domain.
type hedgeGate struct {
	dups []hedgeDup
	// pendingPrimary is the primary rail index of the duplicate being
	// submitted right now (set around the IsendHedge call); -1 otherwise,
	// meaning a requeued duplicate that may ride any rail.
	pendingPrimary int
}

type hedgeDup struct {
	u       *core.Unit
	primary int // rail index the duplicate must avoid; -1 for any
}

func (hg *hedgeGate) pop() {
	copy(hg.dups, hg.dups[1:])
	hg.dups[len(hg.dups)-1] = hedgeDup{}
	hg.dups = hg.dups[:len(hg.dups)-1]
}

// staggerQuantile picks the hedge delay from the primary rail's
// completion-time distribution.
const staggerQuantile = 0.90

// NewHedge wraps inner with hedged duplicate sends at the default tuning:
// stagger = p90 of the primary rail's completion times clamped to
// [1µs, 500µs].
func NewHedge(inner core.Strategy) *Hedge {
	return NewHedgeTuned(inner, time.Microsecond, 500*time.Microsecond)
}

// NewHedgeTuned wraps inner with an explicit stagger window: messages up
// to the engine's AggThreshold are hedged after the primary rail's p90
// completion time, clamped to [minStagger, maxStagger].
func NewHedgeTuned(inner core.Strategy, minStagger, maxStagger time.Duration) *Hedge {
	return &Hedge{inner: inner, minStag: minStagger, maxStag: maxStagger}
}

// Name implements core.Strategy.
func (h *Hedge) Name() string { return "hedge" }

// Inner returns the wrapped strategy.
func (h *Hedge) Inner() core.Strategy { return h.inner }

// HedgeStats is a snapshot of hedging activity across all gates.
type HedgeStats struct {
	Eligible     uint64 // primaries armed with a stagger timer
	Hedged       uint64 // duplicates actually submitted (timer fired)
	Cancelled    uint64 // losing duplicates cancelled while incomplete
	PrimaryBytes uint64 // payload bytes of armed primaries
	DupBytes     uint64 // payload bytes sent again as duplicates
}

// Stats returns the hedging counters (duplicate-send overhead is
// DupBytes/PrimaryBytes).
func (h *Hedge) Stats() HedgeStats {
	return HedgeStats{
		Eligible:     h.eligible.Load(),
		Hedged:       h.hedged.Load(),
		Cancelled:    h.cancelled.Load(),
		PrimaryBytes: h.primBytes.Load(),
		DupBytes:     h.dupBytes.Load(),
	}
}

func (h *Hedge) gateState(b *core.Backlog) *hedgeGate {
	if v, ok := h.gates.Load(b); ok {
		return v.(*hedgeGate)
	}
	v, _ := h.gates.LoadOrStore(b, &hedgeGate{pendingPrimary: -1})
	return v.(*hedgeGate)
}

// Submit implements core.Strategy: hedge duplicates are routed to the
// per-gate duplicate queue (they must not be aggregated or rescheduled
// onto the primary rail by the inner strategy); everything else passes
// through.
func (h *Hedge) Submit(b *core.Backlog, u *core.Unit) {
	if core.IsHedgeTag(u.Hdr.Tag) {
		hg := h.gateState(b)
		hg.dups = append(hg.dups, hedgeDup{u: u, primary: hg.pendingPrimary})
		return
	}
	h.inner.Submit(b, u)
}

// Discard implements core.Discarder, forwarding to the inner strategy.
func (h *Hedge) Discard(b *core.Backlog, u *core.Unit) {
	if d, ok := h.inner.(core.Discarder); ok {
		d.Discard(b, u)
	}
}

// Schedule implements core.Strategy: pending duplicates are served first
// to any idle rail other than their primary; cancelled duplicates are
// dropped. Packets the inner strategy schedules are inspected and, when
// hedge-eligible, armed with a stagger timer.
func (h *Hedge) Schedule(b *core.Backlog, r *core.Rail) *core.Packet {
	hg := h.gateState(b)
	for len(hg.dups) > 0 {
		d := hg.dups[0]
		if d.u.Req != nil && d.u.Req.Done() {
			// Cancelled (the primary won) before any rail took it.
			hg.pop()
			b.DiscardUnit(d.u)
			continue
		}
		if d.primary >= 0 && r.Index() == d.primary {
			break // never race the duplicate on the primary's own rail
		}
		hg.pop()
		return b.MakeEager(d.u)
	}
	p := h.inner.Schedule(b, r)
	if p != nil {
		h.maybeArm(b, r, p)
	}
	return p
}

// maybeArm starts the stagger timer for a hedge-eligible primary packet:
// a small, single-segment, whole-message eager send on a user tag, with
// at least one other rail to race on.
func (h *Hedge) maybeArm(b *core.Backlog, r *core.Rail, p *core.Packet) {
	hdr := p.Hdr
	if hdr.Kind != core.KData || hdr.Agg != 0 || hdr.MsgSegs != 1 || hdr.Off != 0 || hdr.MsgOff != 0 {
		return
	}
	if core.IsReservedTag(hdr.Tag) {
		return
	}
	if len(p.Payload) > b.AggThreshold() || uint64(len(p.Payload)) != hdr.MsgLen {
		return
	}
	req := p.SenderReq()
	if req == nil {
		return
	}
	up := 0
	for _, rr := range b.Rails() {
		if !rr.Down() {
			up++
		}
	}
	if up < 2 {
		return
	}
	g := b.Gate()
	h.eligible.Add(1)
	h.primBytes.Add(uint64(len(p.Payload)))
	data := p.Payload // aliases the caller's buffer; stable until req completes
	tag, msg := hdr.Tag, hdr.MsgID
	primary := r.Index()
	stop := g.Engine().Clock().AfterFunc(int64(h.stagger(r)), func() {
		g.Exec(func(o core.Ops) {
			if req.Done() {
				return
			}
			dup := make([]byte, len(data))
			copy(dup, data)
			hg := h.gateState(b)
			hg.pendingPrimary = primary
			sr := o.IsendHedge(tag, msg, dup)
			hg.pendingPrimary = -1
			h.hedged.Add(1)
			h.dupBytes.Add(uint64(len(dup)))
			req.OnComplete(func() {
				if !sr.Done() {
					h.cancelled.Add(1)
					sr.Cancel(nil)
				}
			})
		})
	})
	req.OnComplete(stop)
}

// stagger derives the hedge delay from the primary rail's completion-time
// quantile, clamped to the configured window.
func (h *Hedge) stagger(r *core.Rail) time.Duration {
	d := r.Estimator().Quantile(staggerQuantile)
	if d < h.minStag {
		d = h.minStag
	}
	if h.maxStag > 0 && d > h.maxStag {
		d = h.maxStag
	}
	return d
}

var (
	_ core.Strategy  = (*Hedge)(nil)
	_ core.Discarder = (*Hedge)(nil)
)
