package core

import (
	"fmt"

	"newmad/internal/progress"
)

// Gate is a connection to one peer: the set of rails reaching it plus the
// per-peer scheduling and matching state. The optimization strategy works
// on the whole communication flow of the gate, regardless of tags — the
// paper's "whole communication flow between pairs of machines".
//
// Each gate is its own progress domain: every send, arrival, completion
// and scheduling decision for the gate runs owning dom, so traffic on
// different gates of the same engine never contends. The paper's
// defining per-gate semantics — backlog accumulation and kick-on-idle —
// therefore stay atomic per gate while gates progress in parallel.
type Gate struct {
	eng     *Engine
	dom     *progress.Domain
	name    string
	rails   []*Rail
	backlog *Backlog
	// dead is set by failGate when the last rail dies: outstanding
	// requests were failed with it, and new submissions fail
	// immediately instead of queueing work nothing can ever drain.
	dead error

	// send side
	sendMsgID map[uint32]uint64
	nextRdv   uint64
	rdvSend   map[uint64]*Unit
	// hedgeSeq sequences the reserved hedge tags of speculative duplicate
	// sends (IsendHedge); each duplicate gets a fresh epoch so hedge wire
	// traffic never aliases across messages.
	hedgeSeq uint32

	// receive side
	recvMsgID  map[uint32]uint64
	posted     map[uint32][]*RecvReq
	unexpected map[msgKey]*earlyMsg
	rdvRecv    map[uint64]*rdvSink
	// maxRdvSeen is the highest rendezvous id any RTS announced. It
	// separates legitimate stragglers (chunks of a rendezvous torn down
	// by an abort: id <= maxRdvSeen, dropped) from corruption (an id
	// never announced: rail failure).
	maxRdvSeen uint64

	stats GateStats
}

type msgKey struct {
	tag uint32
	msg uint64
}

// earlyMsg buffers arrivals for a message with no posted receive yet.
type earlyMsg struct {
	data []*Packet // copied KData records
	rts  []Header
	// aborted records a sender-side KAbort that arrived before the
	// receive was posted: the matching Irecv fails immediately.
	aborted bool
}

// rdvSink maps an accepted rendezvous onto its receive request.
type rdvSink struct {
	req  *RecvReq
	base uint64 // message offset of the segment
	need uint64
	got  uint64
}

func newGate(eng *Engine, name string) *Gate {
	g := &Gate{
		eng:        eng,
		dom:        progress.NewDomain(),
		name:       name,
		sendMsgID:  make(map[uint32]uint64),
		rdvSend:    make(map[uint64]*Unit),
		recvMsgID:  make(map[uint32]uint64),
		posted:     make(map[uint32][]*RecvReq),
		unexpected: make(map[msgKey]*earlyMsg),
		rdvRecv:    make(map[uint64]*rdvSink),
	}
	g.backlog = &Backlog{gate: g}
	return g
}

// Name returns the peer label given to NewGate.
func (g *Gate) Name() string { return g.name }

// Engine returns the owning engine.
func (g *Gate) Engine() *Engine { return g.eng }

// Rails returns a snapshot of the gate's rails in AddRail order.
func (g *Gate) Rails() []*Rail {
	g.dom.Lock()
	defer g.dom.Unlock()
	return append([]*Rail(nil), g.rails...)
}

// Backlog exposes the gate's backlog (mainly for tests and tooling).
func (g *Gate) Backlog() *Backlog { return g.backlog }

// AddRail attaches a driver as the gate's next rail and returns it. The
// driver is bound while the domain is held, so events it delivers from
// its own goroutines at once are deferred until the rail is in place.
//
// Adding a rail to a dead gate revives it: the gate was dead only because
// nothing could ever drain its work, and the new rail can. Requests that
// already failed stay failed.
func (g *Gate) AddRail(drv Driver) *Rail {
	g.dom.Lock()
	r := &Rail{gate: g, index: len(g.rails), drv: drv}
	prof := drv.Profile()
	r.profile.Store(&prof)
	r.est = NewEstimator(prof.Latency, prof.Bandwidth)
	g.rails = append(g.rails, r)
	g.dead = nil
	drv.Bind(r.index, railEvents{r})
	g.dom.Unlock()
	return r
}

// UpRails returns the number of usable rails.
func (g *Gate) UpRails() int {
	g.dom.Lock()
	defer g.dom.Unlock()
	return g.upRails()
}

// upRails counts usable rails; caller owns the gate's domain.
func (g *Gate) upRails() int {
	n := 0
	for _, r := range g.rails {
		if !r.down.Load() {
			n++
		}
	}
	return n
}

// Isend submits a single-segment message on tag and returns its request.
// data must stay untouched until the request completes.
func (g *Gate) Isend(tag uint32, data []byte) *SendReq {
	g.dom.Lock()
	defer g.dom.Unlock()
	return g.isend1(tag, data)
}

// isend1 is the single-segment fast path: it builds the one unit
// directly from pooled structs, skipping Isendv's scatter-slice
// wrapping, so a steady-state send allocates nothing. Caller owns the
// gate's domain.
func (g *Gate) isend1(tag uint32, data []byte) *SendReq {
	if g.dead != nil {
		req := getSendReq()
		req.gate, req.tag = g, tag
		req.complete(g.dead)
		return req
	}
	msg := g.sendMsgID[tag]
	g.sendMsgID[tag] = msg + 1
	g.stats.MsgsSent++
	req := getSendReq()
	req.gate, req.tag, req.msg = g, tag, msg
	req.totalBytes, req.queuedBytes = len(data), len(data)
	u := getUnit()
	u.Req = req
	u.Data = data
	u.Hdr = Header{
		Kind:    KData,
		Tag:     tag,
		MsgID:   msg,
		MsgSegs: 1,
		MsgLen:  uint64(len(data)),
		SegLen:  uint64(len(data)),
	}
	g.eng.strat.Submit(g.backlog, u)
	g.eng.kick(g)
	return req
}

// Isendv submits one message made of the given segments, in order. This
// is the collect layer's incremental message construction: each segment
// becomes an independently schedulable unit, so strategies may aggregate,
// reorder, balance or split them (paper §2).
func (g *Gate) Isendv(tag uint32, segs [][]byte) *SendReq {
	g.dom.Lock()
	defer g.dom.Unlock()
	return g.isendv(tag, segs)
}

// isendv is Isendv's body; caller owns the gate's domain.
func (g *Gate) isendv(tag uint32, segs [][]byte) *SendReq {
	if g.dead != nil {
		req := getSendReq()
		req.gate, req.tag = g, tag
		req.complete(g.dead)
		return req
	}
	if len(segs) == 0 {
		segs = [][]byte{nil}
	}
	if len(segs) > 0xffff {
		panic(fmt.Sprintf("core: %d segments exceeds the %d limit", len(segs), 0xffff))
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	msg := g.sendMsgID[tag]
	g.sendMsgID[tag] = msg + 1
	g.stats.MsgsSent++
	req := getSendReq()
	req.gate, req.tag, req.msg = g, tag, msg
	req.totalBytes, req.queuedBytes = total, total
	off := uint64(0)
	for i, s := range segs {
		u := getUnit()
		u.Req = req
		u.Data = s
		u.Hdr = Header{
			Kind:     KData,
			Tag:      tag,
			MsgID:    msg,
			SegIndex: uint16(i),
			MsgSegs:  uint16(len(segs)),
			MsgLen:   uint64(total),
			MsgOff:   off,
			SegLen:   uint64(len(s)),
		}
		off += uint64(len(s))
		g.eng.strat.Submit(g.backlog, u)
	}
	g.eng.kick(g)
	return req
}

// isendHedge submits a speculative duplicate of an in-flight
// single-segment message: the whole payload again, under a fresh reserved
// hedge tag, carrying the origin (tag, msgID) so the receiver folds it
// back into the original matching channel where the normal msgID dedupe
// drops whichever copy loses. The duplicate gets its own request — never
// the original's — so byte accounting on the user's request stays exact;
// cancelling the loser via Cancel is safe at any point of its lifecycle.
// data must remain stable until the returned request completes (hedging
// strategies pass a private copy, since the user may reuse their buffer
// the moment the primary completes). Caller owns the gate's domain.
func (g *Gate) isendHedge(origTag uint32, origMsg uint64, data []byte) *SendReq {
	if g.dead != nil {
		req := getSendReq()
		req.gate, req.tag = g, origTag
		req.complete(g.dead)
		return req
	}
	seq := g.hedgeSeq
	g.hedgeSeq++
	tag := ReservedTag(HedgeClass, seq)
	req := getSendReq()
	req.gate, req.tag, req.msg = g, tag, origMsg
	req.totalBytes, req.queuedBytes = len(data), len(data)
	u := getUnit()
	u.Req = req
	u.Data = data
	u.Hdr = Header{
		Kind:    KData,
		Tag:     tag,
		MsgID:   origMsg,
		MsgSegs: 1,
		MsgLen:  uint64(len(data)),
		SegLen:  uint64(len(data)),
		RdvID:   uint64(origTag), // origin tag rides the spare field
	}
	g.eng.strat.Submit(g.backlog, u)
	g.eng.kick(g)
	return req
}

// Irecv posts a receive for the next message on tag. buf must be large
// enough for the whole message; the request completes once every byte
// (across segments, aggregates and rendezvous chunks) has landed.
func (g *Gate) Irecv(tag uint32, buf []byte) *RecvReq {
	g.dom.Lock()
	defer g.dom.Unlock()
	return g.irecv1(tag, buf)
}

// irecv1 is the single-buffer fast path: the pooled request's inline
// one-element scatter array is used, so posting a plain receive
// allocates nothing. Caller owns the gate's domain.
func (g *Gate) irecv1(tag uint32, buf []byte) *RecvReq {
	req := getRecvReq()
	req.buf1[0] = buf
	return g.postRecv(tag, req, req.buf1[:1], len(buf))
}

// Irecvv posts a scatter receive: the next message on tag lands across
// the given buffers in order, mirroring the sender's incremental message
// construction (NewMadeleine's unpack interface). The combined capacity
// must cover the whole message.
func (g *Gate) Irecvv(tag uint32, bufs [][]byte) *RecvReq {
	g.dom.Lock()
	defer g.dom.Unlock()
	return g.irecvv(tag, bufs)
}

// irecvv is Irecvv's body; caller owns the gate's domain.
func (g *Gate) irecvv(tag uint32, bufs [][]byte) *RecvReq {
	capacity := 0
	for _, b := range bufs {
		capacity += len(b)
	}
	return g.postRecv(tag, getRecvReq(), bufs, capacity)
}

// postRecv finishes posting a pooled receive request: match-table entry,
// unexpected-buffer replay, dead-gate handling. Caller owns the gate's
// domain.
func (g *Gate) postRecv(tag uint32, req *RecvReq, bufs [][]byte, capacity int) *RecvReq {
	msg := g.recvMsgID[tag]
	g.recvMsgID[tag] = msg + 1
	req.gate, req.tag, req.msg = g, tag, msg
	req.bufs, req.capacity, req.msgLen = bufs, capacity, -1
	g.posted[tag] = append(g.posted[tag], req)
	if em, ok := g.unexpected[msgKey{tag, msg}]; ok {
		delete(g.unexpected, msgKey{tag, msg})
		if em.aborted {
			g.dropPosted(req)
			req.complete(ErrMsgAborted)
			return req
		}
		// A buffered record can error-complete the request (capacity or
		// offset violations); replaying further records into a completed
		// request would register rendezvous sinks against buffers the
		// application has already reclaimed. Every buffered packet's
		// arena lease is released here — replayed or not — since the
		// buffer entry is being consumed either way.
		for i, p := range em.data {
			if !req.Done() {
				g.eng.placeData(g, req, p.Hdr, p.Payload)
			}
			p.Release()
			em.data[i] = nil
		}
		done := req.Done()
		for _, h := range em.rts {
			if done || req.Done() {
				return req
			}
			g.eng.acceptRdv(g, req, h)
		}
		if !done {
			g.eng.kick(g)
		} else {
			return req
		}
	}
	// On a dead gate a receive can still be satisfied by data that
	// arrived before the rails died (replayed from the unexpected
	// buffer above); anything not completed by now never will be.
	if g.dead != nil && !req.Done() {
		g.eng.failRecv(g, req, g.dead)
	}
	return req
}

// Ops is the domain-held view of a gate handed to Exec callbacks: request
// submission primitives that assume the calling goroutine already owns the
// gate's progress domain.
type Ops struct{ g *Gate }

// Gate returns the gate the Ops submit on.
func (o Ops) Gate() *Gate { return o.g }

// Isend submits a single-segment send; see Gate.Isend.
func (o Ops) Isend(tag uint32, data []byte) *SendReq {
	return o.g.isend1(tag, data)
}

// Isendv submits a multi-segment send; see Gate.Isendv.
func (o Ops) Isendv(tag uint32, segs [][]byte) *SendReq { return o.g.isendv(tag, segs) }

// IsendHedge submits a speculative duplicate of the message (origTag,
// origMsg) whose payload is data; see Gate.isendHedge for the dedupe and
// buffer-ownership contract.
func (o Ops) IsendHedge(origTag uint32, origMsg uint64, data []byte) *SendReq {
	return o.g.isendHedge(origTag, origMsg, data)
}

// Irecv posts a receive; see Gate.Irecv.
func (o Ops) Irecv(tag uint32, buf []byte) *RecvReq {
	return o.g.irecv1(tag, buf)
}

// Irecvv posts a scatter receive; see Gate.Irecvv.
func (o Ops) Irecvv(tag uint32, bufs [][]byte) *RecvReq { return o.g.irecvv(tag, bufs) }

// Exec runs fn owning the gate's progress domain without ever blocking the
// caller: if the domain is free, fn runs immediately on this goroutine; if
// it is busy (an application call or an event drain owns it), fn is
// deferred to the current owner, who runs it before releasing.
//
// This is the submission path for code running inside completion callbacks
// or driver events: such code already owns some gate's domain, and domain
// locks are neither reentrant nor safe to acquire while holding another
// (two callbacks taking two domains in opposite orders would deadlock).
// Nonblocking collectives use Exec to fan follow-up rounds out across many
// gates from whichever goroutine completed the previous round.
func (g *Gate) Exec(fn func(Ops)) {
	g.dom.Post(func() { fn(Ops{g}) })
}

// NewMessage starts an incremental multi-segment message (pack interface).
func (g *Gate) NewMessage(tag uint32) *Packer {
	return &Packer{gate: g, tag: tag}
}

// Packer builds a message from segments added one at a time, mirroring
// NewMadeleine's incremental pack interface. Send submits the message.
type Packer struct {
	gate *Gate
	tag  uint32
	segs [][]byte
	sent bool
}

// Add appends a segment. The bytes must stay stable until the send
// request completes.
func (p *Packer) Add(seg []byte) *Packer {
	if p.sent {
		panic("core: Packer.Add after Send")
	}
	p.segs = append(p.segs, seg)
	return p
}

// Len returns the total bytes added so far.
func (p *Packer) Len() int {
	n := 0
	for _, s := range p.segs {
		n += len(s)
	}
	return n
}

// Send submits the message and returns its request.
func (p *Packer) Send() *SendReq {
	if p.sent {
		panic("core: Packer.Send called twice")
	}
	p.sent = true
	return p.gate.Isendv(p.tag, p.segs)
}

// NewExtractor starts an incremental scatter receive (the unpack
// counterpart of NewMessage): segment destination buffers are added one
// at a time, then Recv posts the receive.
func (g *Gate) NewExtractor(tag uint32) *Extractor {
	return &Extractor{gate: g, tag: tag}
}

// Extractor builds the destination layout of an incoming message
// segment by segment, mirroring the sender's Packer.
type Extractor struct {
	gate   *Gate
	tag    uint32
	bufs   [][]byte
	posted bool
}

// Add appends a destination buffer for the next segment span.
func (x *Extractor) Add(buf []byte) *Extractor {
	if x.posted {
		panic("core: Extractor.Add after Recv")
	}
	x.bufs = append(x.bufs, buf)
	return x
}

// Cap returns the total capacity added so far.
func (x *Extractor) Cap() int {
	n := 0
	for _, b := range x.bufs {
		n += len(b)
	}
	return n
}

// Recv posts the scatter receive and returns its request.
func (x *Extractor) Recv() *RecvReq {
	if x.posted {
		panic("core: Extractor.Recv called twice")
	}
	x.posted = true
	return x.gate.Irecvv(x.tag, x.bufs)
}

// GateStats is a snapshot of a gate's activity counters.
type GateStats struct {
	MsgsSent     uint64
	MsgsRecv     uint64
	BytesSent    uint64
	BytesRecv    uint64
	PktsSent     uint64
	RdvStarted   uint64
	AggPackets   uint64 // posted packets carrying >1 segment record
	AggSegments  uint64 // segment records carried inside aggregates
	FailedRails  int
	PendingSends int // packets currently in flight across rails
	PostedRecvs  int // receives posted and not yet complete
}

// Stats returns a snapshot of the gate's counters.
func (g *Gate) Stats() GateStats {
	g.dom.Lock()
	defer g.dom.Unlock()
	s := g.stats
	for _, q := range g.posted {
		s.PostedRecvs += len(q)
	}
	for _, r := range g.rails {
		s.PktsSent += r.pktsSent.Load()
		if r.down.Load() {
			s.FailedRails++
		}
		if r.busy.Load() {
			s.PendingSends++
		}
	}
	return s
}

// findPosted locates the posted receive matching (tag, msg), or nil.
func (g *Gate) findPosted(tag uint32, msg uint64) *RecvReq {
	for _, r := range g.posted[tag] {
		if r.msg == msg {
			return r
		}
	}
	return nil
}

// dropPosted removes a completed receive from the posted queue, zeroing
// the vacated tail slot: append(q[:i], q[i+1:]...) alone leaves the old
// last element aliased in the backing array, pinning the completed
// request and its buffers against GC (and against pool reuse) until the
// slot is overwritten.
func (g *Gate) dropPosted(req *RecvReq) {
	q := g.posted[req.tag]
	for i, r := range q {
		if r == req {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			g.posted[req.tag] = q[:len(q)-1]
			return
		}
	}
}

// early returns (creating if needed) the buffer for an unexpected message.
func (g *Gate) early(tag uint32, msg uint64) *earlyMsg {
	k := msgKey{tag, msg}
	em, ok := g.unexpected[k]
	if !ok {
		em = &earlyMsg{}
		g.unexpected[k] = em
	}
	return em
}
