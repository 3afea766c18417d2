// Package core implements the NewMadeleine communication engine: a
// three-layer library where the top (collect) layer gathers application
// segments, a pluggable optimizing scheduler (Strategy) rewrites them into
// packets, and a transmit layer of drivers moves packets over rails. The
// defining trait, reproduced from the paper, is that scheduling decisions
// are taken when a NIC becomes idle, not when the application calls the
// API: requests accumulate in a backlog while rails are busy, giving the
// strategy an optimization window.
//
// Concurrency model: every gate is an independent progress domain
// (internal/progress). Application calls and driver events for a gate run
// mutually excluded within its domain, while different gates of the same
// engine progress in parallel — the engine itself holds only a small
// registry lock for gate creation. Progress is event-driven end to end:
// every driver reports completions and arrivals the moment they happen,
// on whichever goroutine observed them, so the strategy is consulted as
// soon as a NIC goes idle. Nothing polls: requests expose a completion
// channel, and Engine.Wait blocks on it.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Config parameterizes an Engine.
type Config struct {
	// Strategy is the optimizing scheduler (required). One instance is
	// shared by every gate of the engine; gates schedule concurrently,
	// so stateful strategies must be safe for concurrent use (see
	// Strategy).
	Strategy Strategy
	// Clock provides time and CPU cost accounting; defaults to the wall
	// clock.
	Clock Clock
	// AggThreshold is the largest aggregated packet strategies build
	// on a rail whose Profile.AggMax is zero (default 16 KiB, the
	// paper's observed copy-vs-resend break-even region), the largest
	// segment strategies that are not pinned to one rail aggregate, and
	// the segment size above which stripping strategies go by
	// rendezvous.
	// Aggregate records are gathered, not copied, until the driver
	// frames them, so a rail may declare a larger cap of its own.
	AggThreshold int
	// MinChunk is the smallest rendezvous chunk strategies should carve
	// when stripping a body across rails (default 16 KiB), keeping
	// chunks on the DMA path.
	MinChunk int
	// Trace, when set, receives engine events (sends, arrivals,
	// completions). Must be fast and safe for concurrent calls; invoked
	// while owning the event's gate progress domain.
	Trace func(TraceEvent)
}

// TraceEvent is one engine occurrence for diagnostics and tests.
type TraceEvent struct {
	Now  int64  // engine clock, ns
	Ev   string // "post", "sent", "arrive", "rdv-grant", "fail", "cancel"
	Gate string
	Rail int
	Kind Kind
	Agg  int
	Len  int // payload bytes
	Tag  uint32
	Msg  uint64
}

// Engine is one node's communication library instance. It owns only
// registry state (the gate list); all per-peer scheduling state lives in
// the gates' progress domains.
type Engine struct {
	cfg   Config
	clock Clock
	strat Strategy

	mu    sync.Mutex // registry: gates
	gates []*Gate
}

// ErrRailDown reports a send attempted on a failed rail.
var ErrRailDown = errors.New("core: rail down")

// ErrEngineClosed reports a request outstanding (or submitted) after
// Engine.Close.
var ErrEngineClosed = errors.New("core: engine closed")

// ErrMsgAborted reports a receive whose sender gave the message up after
// a rail failed with its packets' delivery status unknown.
var ErrMsgAborted = errors.New("core: message aborted by sender after rail failure")

// ErrCanceled reports a request abandoned by Request.Cancel with no more
// specific cause.
var ErrCanceled = errors.New("core: request canceled")

// ErrPeerRecvGone reports a send abandoned because the peer cancelled
// the matching receive while the rendezvous handshake was pending.
var ErrPeerRecvGone = errors.New("core: peer abandoned the matching receive")

// New creates an engine. It panics if cfg.Strategy is nil.
func New(cfg Config) *Engine {
	if cfg.Strategy == nil {
		panic("core: Config.Strategy is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = NewRealClock()
	}
	if cfg.AggThreshold <= 0 {
		cfg.AggThreshold = 16 << 10
	}
	if cfg.MinChunk <= 0 {
		cfg.MinChunk = 16 << 10
	}
	return &Engine{cfg: cfg, clock: cfg.Clock, strat: cfg.Strategy}
}

// Clock returns the engine clock.
func (e *Engine) Clock() Clock { return e.clock }

// Strategy returns the configured strategy.
func (e *Engine) Strategy() Strategy { return e.strat }

// NewGate creates a gate toward the named peer.
func (e *Engine) NewGate(name string) *Gate {
	g := newGate(e, name)
	e.mu.Lock()
	e.gates = append(e.gates, g)
	e.mu.Unlock()
	return g
}

// Gates returns the engine's gates.
func (e *Engine) Gates() []*Gate {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Gate(nil), e.gates...)
}

// retireRail takes a failed rail out of service by closing its driver.
// The close is asynchronous: retireRail runs inside event handlers,
// possibly on the driver's own I/O goroutine, and driver Close waits for
// those goroutines. Closing matters beyond hygiene: a TCP rail that
// failed on the receive side would otherwise keep accepting writes, so
// the peer would never observe the failure and never run its own
// recovery. It also makes a socket driver's writer finish, and report,
// the packet a railFailure orphaned on the rail (tcpdrv and shmdrv
// report every accepted send before their Close returns).
func (e *Engine) retireRail(r *Rail) {
	go r.drv.Close()
}

// Wait blocks until the request completes and returns its error. It
// parks on the request's completion channel and is woken by the
// completing event, whichever goroutine delivered it (a driver's I/O
// goroutine, a peer's Send, the application's next call): waiting costs
// no CPU.
func (e *Engine) Wait(req Request) error {
	return e.WaitCtx(context.Background(), req)
}

// WaitAll waits for several requests.
func (e *Engine) WaitAll(reqs ...Request) error {
	return e.WaitCtx(context.Background(), reqs...)
}

// WaitCtx blocks until every request completes, or until ctx is done —
// whichever comes first. On ctx expiry it returns ctx.Err() immediately,
// detaching cleanly: the requests are left outstanding (Cancel them to
// abandon the work; other waiters or driver events still complete them
// normally).
// With all requests complete it returns the first request error.
func (e *Engine) WaitCtx(ctx context.Context, reqs ...Request) error {
	var first error
	for _, r := range reqs {
		err, ctxErr := e.waitOne(ctx, r)
		if ctxErr != nil {
			return ctxErr
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// waitOne waits for a single request; a ctx expiry is reported
// separately from a request error so WaitCtx can distinguish "detached"
// from "completed with failure". A request that is already complete wins
// over an expired ctx.
func (e *Engine) waitOne(ctx context.Context, req Request) (reqErr, ctxErr error) {
	select {
	case <-req.Completion():
		return req.Err(), nil
	case <-ctx.Done():
		if req.Done() {
			return req.Err(), nil
		}
		return nil, ctx.Err()
	}
}

// Close closes every driver of every gate, then fails each gate's
// outstanding requests, so blocked waiters wake with ErrEngineClosed
// instead of parking forever. Driver Close joins the driver's I/O
// goroutines, which deliver their final events before exiting: requests
// that really finished complete truthfully before the rest are failed.
func (e *Engine) Close() error {
	var first error
	for _, g := range e.Gates() {
		rails := g.Rails()
		g.dom.Lock()
		for _, r := range g.rails {
			r.markDown()
			r.retiring = false
		}
		g.dom.Unlock()
		for _, r := range rails {
			if err := r.drv.Close(); err != nil && first == nil {
				first = err
			}
		}
		g.dom.Lock()
		for _, r := range g.rails {
			// Closed drivers read no packet any more, including one
			// whose late completion they never reported.
			r.releaseOrphan(r.orphan)
		}
		e.failGate(g, ErrEngineClosed)
		g.dom.Unlock()
	}
	return first
}

func (e *Engine) trace(ev string, g *Gate, rail int, h Header, n int) {
	if e.cfg.Trace == nil {
		return
	}
	e.cfg.Trace(TraceEvent{
		Now: e.clock.Now(), Ev: ev, Gate: g.name, Rail: rail,
		Kind: h.Kind, Agg: int(h.Agg), Len: n, Tag: h.Tag, Msg: h.MsgID,
	})
}

// kick offers every idle rail to the strategy until it declines. Called
// owning the gate's domain, after anything that may create work or free
// a rail: this is the per-gate scheduler reacting to NIC activity.
func (e *Engine) kick(g *Gate) {
	for {
		progress := false
		for _, r := range g.rails {
			if r.busy.Load() || r.down.Load() {
				continue
			}
			p := e.strat.Schedule(g.backlog, r)
			if p == nil {
				continue
			}
			e.post(r, p)
			progress = true
		}
		if !progress {
			return
		}
	}
}

// post hands a packet to a rail's driver and updates request accounting.
// The driver may deliver events synchronously from Send; they are
// deferred by the domain and handled once the current owner releases.
func (e *Engine) post(r *Rail, p *Packet) {
	for _, ref := range p.senders {
		if ref.req != nil {
			ref.req.queuedBytes -= ref.bytes
			ref.req.pendingPkts++
		}
	}
	n := p.Len()
	r.busy.Store(true)
	r.current = p
	r.pktsSent.Add(1)
	r.bytesSent.Add(uint64(n))
	r.gate.stats.BytesSent += uint64(n)
	if p.Hdr.Agg > 1 {
		r.gate.stats.AggPackets++
		r.gate.stats.AggSegments += uint64(p.Hdr.Agg)
	}
	if p.Hdr.Kind == KRTS {
		r.gate.stats.RdvStarted++
	}
	now := e.clock.Now()
	p.postedAt = now
	r.freeAt = max(now, r.freeAt) + wireNs(n, r.profile.Load().Bandwidth)
	e.trace("post", r.gate, r.index, p.Hdr, n)
	if err := r.drv.Send(p); err != nil {
		e.failRail(r, p, err)
	}
}

// sendComplete is the driver callback for a finished send.
func (e *Engine) sendComplete(r *Rail) {
	p := r.current
	if p == nil {
		if r.down.Load() {
			// Late completion on a rail already failed: the driver is
			// done with the bytes of the packet railFailure orphaned.
			r.releaseOrphan(r.orphan)
			return
		}
		panic(fmt.Sprintf("core: SendComplete on idle %v", r))
	}
	r.current = nil
	r.busy.Store(false)
	n := p.Len()
	if r.est != nil {
		r.est.Observe(n, e.clock.Now()-p.postedAt)
	}
	e.trace("sent", r.gate, r.index, p.Hdr, n)
	if p.Hdr.Kind == KChunk {
		if u := r.gate.rdvSend[p.Hdr.RdvID]; u != nil {
			u.inflight--
			if u.inflight == 0 && len(u.spans) == 0 {
				delete(r.gate.rdvSend, p.Hdr.RdvID)
			}
		}
	}
	for _, ref := range p.senders {
		if ref.req != nil {
			ref.req.sentBytes += ref.bytes
			ref.req.pendingPkts--
			ref.req.maybeComplete()
		}
	}
	// The packet is drained: the driver is done with it and completion
	// has been credited, so its lease (aggregation staging, if any)
	// returns to the arena.
	p.Release()
	if r.down.Load() {
		// The rail was MarkDown'd with this packet in flight; now that
		// it drained, finish retiring the rail.
		r.retiring = false
		e.retireRail(r)
		if r.gate.upRails() == 0 {
			e.failGate(r.gate, ErrRailDown)
			return
		}
	}
	e.kick(r.gate)
}

// sendFailed is the driver callback for a failed posted send.
func (e *Engine) sendFailed(r *Rail, p *Packet, err error) {
	e.failRail(r, p, err)
}

// normalizeRailErr makes every rail-failure error satisfy
// errors.Is(err, ErrRailDown), whatever the driver reported: requests
// failed by a dead rail carry a uniform, driver-agnostic sentinel.
func normalizeRailErr(err error) error {
	if err == nil {
		return ErrRailDown
	}
	if errors.Is(err, ErrRailDown) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrRailDown, err)
}

// failRail marks the rail down after a send that certainly did not reach
// the peer and requeues the failed packet's work onto the surviving
// rails. Rendezvous chunks are returned to their body; eager payloads are
// resubmitted as segments. Caller owns the gate's domain.
func (e *Engine) failRail(r *Rail, p *Packet, err error) {
	err = normalizeRailErr(err)
	if r.current != p {
		// The rail already failed through another path (e.g. corrupt
		// inbound traffic) and its in-flight packet was handled there.
		r.releaseOrphan(p)
		return
	}
	g := r.gate
	r.markDown()
	r.busy.Store(false)
	r.current = nil
	e.retireRail(r)
	e.trace("fail", g, r.index, p.Hdr, p.Len())
	for _, ref := range p.senders {
		if ref.req != nil {
			ref.req.pendingPkts--
			if ref.req.failErr != nil {
				// Already doomed by an earlier failure; this may have
				// been its last in-flight packet.
				ref.req.maybeComplete()
			}
		}
	}
	if g.upRails() == 0 {
		err = fmt.Errorf("core: all rails down: %w", err)
		for _, ref := range p.senders {
			if ref.req != nil {
				ref.req.complete(err)
			}
		}
		p.Release()
		e.failGate(g, err)
		return
	}
	if !e.requeue(g, p) {
		p.Release()
	}
	e.kick(g)
}

// railFailure handles a rail dying outside a posted send: corrupt inbound
// traffic or an asynchronous RailDown report from the driver. Unlike
// failRail, the delivery status of any in-flight packet is unknown — the
// send side may have succeeded — so requeueing could duplicate data at
// the peer; the in-flight requests fail instead. Caller owns the gate's
// domain.
func (e *Engine) railFailure(r *Rail, err error) {
	err = normalizeRailErr(err)
	g := r.gate
	if r.down.Load() && r.current == nil {
		// The failure itself was already handled, but the gate-death
		// accounting may still be owed (e.g. the rail was MarkDown'd
		// while others were alive and the last of those died since).
		if g.upRails() == 0 {
			e.failGate(g, fmt.Errorf("core: all rails down: %w", err))
		}
		return
	}
	r.markDown()
	r.busy.Store(false)
	e.retireRail(r)
	p := r.current
	r.current = nil
	if p != nil {
		e.trace("fail", g, r.index, p.Hdr, p.Len())
		inErr := fmt.Errorf("core: rail failed with packet in flight: %w", err)
		for _, ref := range p.senders {
			if ref.req != nil {
				e.failSend(g, ref.req, inErr)
			}
		}
		// Deliberately still in flight: the failure arrived outside the
		// send path (dead reader, async RailDown), so the driver's
		// writer may still be reading this packet — its lease and its
		// senders' buffers. Its requests are doomed but complete, and
		// the lease returns to the arena, only once the driver lets go
		// of it: at its late completion (which retireRail's Close
		// hastens), or at Engine.Close.
		r.orphan = p
	} else {
		e.trace("fail", g, r.index, Header{}, 0)
	}
	if g.upRails() == 0 {
		e.failGate(g, fmt.Errorf("core: all rails down: %w", err))
		return
	}
	e.kick(g)
}

// failGate fails every outstanding request on a gate whose last rail
// died: queued sends, granted bodies, pending rendezvous and posted
// receives all complete with err so waiters wake instead of hanging on a
// peer that can no longer be reached. The gate is marked dead, so later
// submissions fail immediately. Idempotent; caller owns the gate's
// domain.
func (e *Engine) failGate(g *Gate, err error) {
	if g.dead == nil {
		g.dead = err
	}
	// Packets still in flight on rails whose failure event never came
	// (engine close, administratively downed rails) would otherwise
	// leave their requests uncompleted forever. Retire those rails here
	// too: their late SendComplete will find current == nil and return
	// without running the usual drain-time retirement.
	for _, r := range g.rails {
		p := r.current
		if p == nil {
			continue
		}
		if r.retiring {
			// The rail's driver is healthy and still transmitting this
			// packet (administrative MarkDown): completing now would
			// hand the buffers back mid-write. Doom the requests; the
			// rail's own SendComplete finishes them.
			for _, ref := range p.senders {
				if ref.req != nil && ref.req.failErr == nil {
					ref.req.failErr = err
				}
			}
			continue
		}
		r.current = nil
		r.busy.Store(false)
		e.retireRail(r)
		for _, ref := range p.senders {
			if ref.req != nil {
				ref.req.pendingPkts--
				ref.req.complete(err)
			}
		}
		// Safe to release: every path reaching failGate with a live
		// current has quiesced the rail's driver first (engine Close
		// joins the I/O goroutines before failing the gate; failed
		// rails null their current at the failure site).
		p.Release()
	}
	b := g.backlog
	for _, u := range b.pendingSegs() {
		if u.Req != nil {
			u.Req.complete(err)
		}
	}
	b.clearSegs()
	disc, _ := e.strat.(Discarder)
	for _, u := range b.bodies {
		if disc != nil {
			disc.Discard(b, u)
		}
		if u.Req != nil {
			u.Req.complete(err)
		}
	}
	b.bodies = nil
	b.clearCtrl()
	for id, u := range g.rdvSend {
		if u.Req != nil {
			u.Req.complete(err)
		}
		delete(g.rdvSend, id)
	}
	for id := range g.rdvRecv {
		delete(g.rdvRecv, id)
	}
	for tag, q := range g.posted {
		for _, req := range q {
			req.complete(err)
		}
		delete(g.posted, tag)
	}
	// g.unexpected is deliberately kept: data fully delivered before the
	// rails died is still claimable by a later Irecv (a peer may send
	// its final messages and disconnect). The arrive guard on dead
	// gates stops the buffer growing after this point.
}

// failSend dooms an outgoing request after a rail failure: its queued
// units are purged, the peer is told (once) to abandon the message, and
// the request completes with the error as soon as no packets of it
// remain in flight — a driver on a surviving rail may still be reading
// the buffers, so completing earlier would hand them back to the
// application mid-transmit. Caller owns the gate's domain.
func (e *Engine) failSend(g *Gate, req *SendReq, err error) {
	if req.failErr == nil {
		req.failErr = err
		e.purgeRequest(g, req)
		e.trace("cancel", g, -1, Header{Kind: KData, Tag: req.tag, MsgID: req.msg}, 0)
		if !IsHedgeTag(req.tag) {
			// The peer may hold partial data for this message and would
			// otherwise wait forever for the rest; the caller's kick
			// flushes this on the surviving rails. Hedged duplicates are
			// the exception: their origin message is alive and possibly
			// already delivered by the winner, so an abort chasing the
			// losing copy must never tear the origin channel down.
			abort := getPacket()
			abort.Hdr = Header{Kind: KAbort, Tag: req.tag, MsgID: req.msg}
			g.backlog.PushCtrl(abort)
		}
	}
	req.maybeComplete()
}

// purgeRequest removes every queued unit of req from the backlog and the
// pending-rendezvous table, so a request about to complete with an error
// can never have its (then reusable) buffers scheduled later. Caller
// owns the gate's domain.
func (e *Engine) purgeRequest(g *Gate, req *SendReq) {
	b := g.backlog
	disc, _ := e.strat.(Discarder)
	b.filterSegs(func(u *Unit) bool { return u.Req != req })
	keepBodies := b.bodies[:0]
	for _, u := range b.bodies {
		if u.Req != req {
			keepBodies = append(keepBodies, u)
			continue
		}
		if disc != nil {
			disc.Discard(b, u)
		}
	}
	for i := len(keepBodies); i < len(b.bodies); i++ {
		b.bodies[i] = nil
	}
	b.bodies = keepBodies
	for id, u := range g.rdvSend {
		if u.Req == req {
			// A CTS for this rendezvous may legitimately still arrive;
			// the KCTS arm recognizes ids <= nextRdv as stale and drops
			// them.
			delete(g.rdvSend, id)
		}
	}
}

// requeue returns a failed packet's contents to the backlog. The return
// reports whether the packet itself was retained (control packets are
// re-queued as-is); when false the caller owns the packet and releases
// it.
func (e *Engine) requeue(g *Gate, p *Packet) (retained bool) {
	switch p.Hdr.Kind {
	case KChunk:
		u := g.rdvSend[p.Hdr.RdvID]
		if u == nil {
			return false
		}
		u.inflight--
		off := int(p.Hdr.Off)
		g.backlog.regrant(u, off, off+len(p.Payload))
		if u.Req != nil {
			u.Req.queuedBytes += len(p.Payload)
		}
	case KRTS:
		// The peer never saw the RTS; resubmit the whole segment.
		u := g.rdvSend[p.Hdr.RdvID]
		delete(g.rdvSend, p.Hdr.RdvID)
		if u != nil {
			h := u.Hdr
			h.Kind = KData
			ru := getUnit()
			ru.Req, ru.Hdr, ru.Data = u.Req, h, u.Data
			e.strat.Submit(g.backlog, ru)
		}
	case KData:
		// Records are resubmitted as units aliasing the same application
		// buffers, which stay valid until their requests complete.
		if len(p.recs) == 0 {
			var req *SendReq
			if len(p.senders) == 1 {
				req = p.senders[0].req
			}
			e.resubmit(g, req, p.Hdr, p.Payload)
			break
		}
		for i, ref := range p.senders {
			h, _ := DecodeHeader(p.recs[2*i]) // encoded by MakeEager
			e.resubmit(g, ref.req, h, p.recs[2*i+1])
		}
	case KCTS, KAbort, KRecvAbort:
		g.backlog.PushCtrl(p)
		return true
	}
	return false
}

// resubmit returns one segment of a failed packet to the strategy,
// unless its request is already doomed.
func (e *Engine) resubmit(g *Gate, req *SendReq, h Header, data []byte) {
	if req != nil && req.failErr != nil {
		return // doomed request: don't resubmit its buffers
	}
	u := getUnit()
	u.Req, u.Hdr, u.Data = req, h, data
	e.strat.Submit(g.backlog, u)
	if req != nil {
		req.queuedBytes += len(data)
	}
}

// walkRecords calls fn on each record of an inbound aggregate, in
// order, without materializing units. A record whose header is short or
// whose length overruns the packet stops the walk with an error; the
// records before it have been walked. The bounds checks use uint64
// arithmetic, immune to 32-bit int wraparound.
func walkRecords(p *Packet, fn func(h Header, data []byte)) error {
	buf := p.Payload
	for i := 0; i < int(p.Hdr.Agg); i++ {
		h, err := DecodeHeader(buf)
		if err != nil {
			return fmt.Errorf("corrupt aggregate record %d: %w", i, err)
		}
		if uint64(HeaderLen)+uint64(h.PayLen) > uint64(len(buf)) {
			return fmt.Errorf("aggregate record %d overruns packet (%d+%d > %d)", i, HeaderLen, h.PayLen, len(buf))
		}
		end := HeaderLen + int(h.PayLen)
		fn(h, buf[HeaderLen:end])
		buf = buf[end:]
	}
	return nil
}

// unhedgeHdr folds a hedge-duplicate record back into its origin matching
// channel: the reserved hedge tag is replaced by the origin tag carried in
// the spare rendezvous field, after which ordinary (tag, msgID) matching
// dedupes the copies — whichever of primary and duplicate arrives second
// is dropped as a straggler or absorbed by the completed receive's replay
// guard. Non-hedge headers pass through unchanged.
func unhedgeHdr(h Header) Header {
	if IsHedgeTag(h.Tag) {
		h.Tag = uint32(h.RdvID)
		h.RdvID = 0
	}
	return h
}

// arrive is the driver callback for an incoming packet. Corrupt wire
// input — undecodable aggregates, unknown rendezvous ids, out-of-range
// offsets, unknown kinds — fails the rail instead of panicking: a
// malformed peer must not crash the process.
func (e *Engine) arrive(r *Rail, p *Packet) {
	g := r.gate
	if g.dead != nil {
		// Events drained after the gate died (deferred in the domain
		// inbox, or queued in a driver) must not repopulate state that
		// failGate just released.
		return
	}
	e.trace("arrive", g, r.index, p.Hdr, len(p.Payload))
	switch p.Hdr.Kind {
	case KData:
		if p.Hdr.Agg == 0 {
			e.arriveData(g, unhedgeHdr(p.Hdr), p.Payload)
			return
		}
		// Records before a corruption point are still delivered, then
		// the rail fails.
		err := walkRecords(p, func(h Header, data []byte) { e.arriveData(g, unhedgeHdr(h), data) })
		if err != nil {
			e.railFailure(r, fmt.Errorf("core: %w", err))
		}
	case KRTS:
		if p.Hdr.RdvID > g.maxRdvSeen {
			g.maxRdvSeen = p.Hdr.RdvID
		}
		if req := g.findPosted(p.Hdr.Tag, p.Hdr.MsgID); req != nil {
			e.acceptRdv(g, req, p.Hdr)
			e.kick(g)
		} else {
			if p.Hdr.MsgID < g.recvMsgID[p.Hdr.Tag] {
				// The message was already claimed by a (since completed
				// or cancelled) receive, so no CTS will ever answer this
				// RTS. Tell the sender to give the rendezvous up — a
				// cancelled receive must not park its peer's Send
				// forever — instead of letting the straggler RTS sit in
				// the unexpected buffer.
				ab := getPacket()
				ab.Hdr = Header{Kind: KRecvAbort, Tag: p.Hdr.Tag, MsgID: p.Hdr.MsgID}
				g.backlog.PushCtrl(ab)
				e.kick(g)
				return
			}
			em := g.early(p.Hdr.Tag, p.Hdr.MsgID)
			em.rts = append(em.rts, p.Hdr)
		}
	case KCTS:
		u := g.rdvSend[p.Hdr.RdvID]
		if u == nil {
			if p.Hdr.RdvID <= g.nextRdv {
				// A rendezvous this gate really started: the entry is
				// gone because the request was aborted by a rail
				// failure — a late CTS is legitimate traffic, drop it.
				return
			}
			e.railFailure(r, fmt.Errorf("core: CTS for unknown rdv %d", p.Hdr.RdvID))
			return
		}
		e.trace("rdv-grant", g, r.index, p.Hdr, int(u.Hdr.SegLen))
		g.backlog.Grant(u)
		e.kick(g)
	case KChunk:
		sink := g.rdvRecv[p.Hdr.RdvID]
		if sink == nil {
			if p.Hdr.RdvID <= g.maxRdvSeen {
				// A rendezvous some RTS really announced: the sink is
				// gone because the message was aborted — straggler
				// chunks from surviving rails are legitimate, drop them.
				return
			}
			e.railFailure(r, fmt.Errorf("core: chunk for unknown rdv %d", p.Hdr.RdvID))
			return
		}
		// Overflow-safe range check: each term is validated against the
		// remaining capacity before it is subtracted, so wire values
		// near 2^64 cannot wrap the sum past the guard.
		capacity := uint64(sink.req.capacity)
		if sink.base > capacity || p.Hdr.Off > capacity-sink.base ||
			uint64(len(p.Payload)) > capacity-sink.base-p.Hdr.Off {
			e.railFailure(r, fmt.Errorf("core: chunk at %d+%d overruns receive capacity %d", sink.base, p.Hdr.Off, sink.req.capacity))
			return
		}
		sink.req.writeAt(sink.base+p.Hdr.Off, p.Payload)
		sink.got += uint64(len(p.Payload))
		sink.req.gotBytes += len(p.Payload)
		if sink.got >= sink.need {
			delete(g.rdvRecv, p.Hdr.RdvID)
			// The sender's rdvSend entry is cleaned when its request
			// completes; see sendComplete accounting.
		}
		e.finishRecv(g, sink.req)
	case KAbort:
		if IsHedgeTag(p.Hdr.Tag) {
			// A cancelled hedge duplicate never aborts anything: the
			// origin message it duplicated is alive (likely already
			// delivered by the winning copy). Senders suppress these; a
			// peer that emits one anyway is dropped defensively.
			return
		}
		// The sender gave up on message (Tag, MsgID) after a rail died
		// with delivery unknown: fail the matching receive (now or when
		// it is posted) instead of letting it wait forever.
		if req := g.findPosted(p.Hdr.Tag, p.Hdr.MsgID); req != nil {
			e.failRecv(g, req, ErrMsgAborted)
			return
		}
		if p.Hdr.MsgID < g.recvMsgID[p.Hdr.Tag] {
			// The message was already claimed by a receive (which may
			// even have completed — delivery-unknown aborts can chase
			// fully delivered data). Nothing to mark.
			return
		}
		em := g.early(p.Hdr.Tag, p.Hdr.MsgID)
		em.aborted = true
		for i, q := range em.data {
			q.Release()
			em.data[i] = nil
		}
		em.data = nil
		em.rts = nil
	case KRecvAbort:
		// The peer's receive for our message (Tag, MsgID) is gone (a
		// cancelled receive): a send of ours still parked in the
		// rendezvous handshake can never be granted — fail it. Granted
		// bodies are left alone: their chunks are dropped at the peer
		// and the request completes through normal accounting.
		for id, u := range g.rdvSend {
			if u.Hdr.Tag != p.Hdr.Tag || u.Hdr.MsgID != p.Hdr.MsgID || u.spans != nil {
				continue
			}
			delete(g.rdvSend, id)
			if u.Req != nil && u.Req.failErr == nil {
				u.Req.failErr = ErrPeerRecvGone
				e.purgeRequest(g, u.Req)
				u.Req.maybeComplete()
			}
		}
	default:
		e.railFailure(r, fmt.Errorf("core: arrive: bad kind %v", p.Hdr.Kind))
	}
}

// arriveData routes one eager segment record to its receive, or buffers
// it as unexpected (copying, since the wire buffer is transient).
func (e *Engine) arriveData(g *Gate, h Header, payload []byte) {
	if req := g.findPosted(h.Tag, h.MsgID); req != nil {
		e.placeData(g, req, h, payload)
		return
	}
	if h.MsgID < g.recvMsgID[h.Tag] {
		// The message was already claimed by a receive that has since
		// completed (or was aborted): buffering this straggler segment
		// would leak it forever, since no future receive can match it.
		return
	}
	f := GetBuf(len(payload))
	copy(f.B, payload)
	e.clock.Memcpy(len(payload))
	q := getPacket()
	q.Hdr = h
	q.Payload = f.B
	q.frame = f
	em := g.early(h.Tag, h.MsgID)
	em.data = append(em.data, q)
}

// placeData copies an eager segment into the receive buffers. Out-of-
// range lengths and offsets complete the receive with an error (like the
// capacity check) rather than corrupting memory or panicking.
func (e *Engine) placeData(g *Gate, req *RecvReq, h Header, payload []byte) {
	// Compare as uint64: a wire MsgLen with the top bit set must hit
	// this error, not wrap negative through int and sneak past.
	if h.MsgLen > uint64(req.capacity) {
		e.failRecv(g, req, fmt.Errorf("core: message %d bytes exceeds receive capacity %d", h.MsgLen, req.capacity))
		return
	}
	req.msgLen = int64(h.MsgLen)
	// Overflow-safe: validate each wire offset against the remaining
	// capacity before subtracting, so values near 2^64 cannot wrap.
	capacity := uint64(req.capacity)
	if h.MsgOff > capacity || h.Off > capacity-h.MsgOff ||
		uint64(len(payload)) > capacity-h.MsgOff-h.Off {
		e.failRecv(g, req, fmt.Errorf("core: segment at offset %d+%d overruns receive capacity %d", h.MsgOff, h.Off, req.capacity))
		return
	}
	req.writeAt(h.MsgOff+h.Off, payload)
	req.gotBytes += len(payload)
	e.finishRecv(g, req)
}

// acceptRdv registers a rendezvous destination and queues the CTS reply.
func (e *Engine) acceptRdv(g *Gate, req *RecvReq, h Header) {
	if h.MsgLen > uint64(req.capacity) {
		e.failRecv(g, req, fmt.Errorf("core: message %d bytes exceeds receive capacity %d", h.MsgLen, req.capacity))
		return
	}
	req.msgLen = int64(h.MsgLen)
	g.rdvRecv[h.RdvID] = &rdvSink{req: req, base: h.MsgOff, need: h.SegLen}
	cts := h
	cts.Kind = KCTS
	cts.PayLen = 0
	cp := getPacket()
	cp.Hdr = cts
	g.backlog.PushCtrl(cp)
}

// failRecv error-completes a receive, tearing down any rendezvous sinks
// pointing at it first — once the request completes the application may
// reclaim the buffers, so no later chunk may find a sink into them.
// Caller owns the gate's domain.
func (e *Engine) failRecv(g *Gate, req *RecvReq, err error) {
	for id, sink := range g.rdvRecv {
		if sink.req == req {
			delete(g.rdvRecv, id)
		}
	}
	g.dropPosted(req)
	req.complete(err)
}

// finishRecv completes a receive once all bytes are in.
func (e *Engine) finishRecv(g *Gate, req *RecvReq) {
	if req.msgLen >= 0 && int64(req.gotBytes) >= req.msgLen {
		// In correct traffic every rendezvous sink of the request has
		// drained by the time msgLen is reached; malformed overlapping
		// segment claims could leave one. Tear any remainder down so no
		// later chunk writes into buffers the application (or the
		// request pool) is about to reclaim.
		for id, sink := range g.rdvRecv {
			if sink.req == req {
				delete(g.rdvRecv, id)
			}
		}
		g.dropPosted(req)
		g.stats.MsgsRecv++
		g.stats.BytesRecv += uint64(req.gotBytes)
		req.complete(nil)
	}
}
