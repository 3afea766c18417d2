package core

import "fmt"

// Unit is one schedulable piece of outgoing work: an application segment
// awaiting transmission, or a rendezvous body that has been granted and is
// being (possibly partially) shipped as chunks.
type Unit struct {
	Req  *SendReq
	Hdr  Header // prototype KData header for the segment
	Data []byte

	// rdv body state
	RdvID    uint64
	spans    []span // unscheduled byte ranges
	inflight int    // chunks posted but not yet completed
}

// span is a half-open byte range [from, to).
type span struct{ from, to int }

// Len returns the segment length in bytes.
func (u *Unit) Len() int { return len(u.Data) }

// Remaining returns the unscheduled byte count of a body unit.
func (u *Unit) Remaining() int {
	n := 0
	for _, s := range u.spans {
		n += s.to - s.from
	}
	return n
}

// String implements fmt.Stringer.
func (u *Unit) String() string {
	return fmt.Sprintf("unit(tag=%d msg=%d seg=%d len=%d rem=%d)", u.Hdr.Tag, u.Hdr.MsgID, u.Hdr.SegIndex, len(u.Data), u.Remaining())
}

// Backlog is the per-gate accumulation of outgoing work the optimizing
// scheduler rewrites into packets. It mirrors the paper's "waiting packs"
// list: requests pile up here while NICs are busy, and the strategy is
// consulted whenever a NIC goes idle.
//
// Strategies access the backlog through its methods; the queues preserve
// submission order but strategies are free to pop out of order (the paper
// explicitly allows reordering and out-of-order sending). All backlog
// access happens owning the gate's progress domain, so no internal
// locking is needed even though gates progress concurrently.
// The ctrl and segs queues are head-indexed: popping advances a head
// cursor instead of reslicing the base away, and the queue resets to the
// start of its backing array when it empties, so a steady
// produce-consume cycle reuses one allocation forever. Vacated slots are
// zeroed so drained entries don't pin packets or requests against GC.
type Backlog struct {
	gate     *Gate
	ctrl     []*Packet // ready control packets (RTS is built lazily, CTS here)
	ctrlHead int
	segs     []*Unit // pending eager-candidate segments, FIFO
	segHead  int
	bodies   []*Unit // granted rendezvous bodies
	// scratch is the reusable unit slice handed to strategies gathering
	// aggregation candidates (see Scratch).
	scratch []*Unit
}

// Gate returns the gate this backlog feeds.
func (b *Backlog) Gate() *Gate { return b.gate }

// Rails returns the gate's rails (including down rails; check Rail.Down).
func (b *Backlog) Rails() []*Rail { return b.gate.rails }

// AggThreshold returns the engine's aggregation limit (Config.AggThreshold):
// the aggregate size of rails that declare no cap of their own, the
// largest segment an unpinned strategy aggregates, and the segment size
// above which stripping strategies go by rendezvous.
func (b *Backlog) AggThreshold() int { return b.gate.eng.cfg.AggThreshold }

// AggMax returns the largest aggregate payload, record headers included,
// a strategy should build for rail r: the rail's Profile.AggMax, or
// AggThreshold when the rail declares none, capped at MaxPayload.
func (b *Backlog) AggMax(r *Rail) int {
	m := r.Profile().AggMax
	if m <= 0 {
		m = b.AggThreshold()
	}
	return min(m, MaxPayload)
}

// MinChunk returns the smallest rendezvous chunk a strategy should carve,
// so stripping never drops back into the PIO regime.
func (b *Backlog) MinChunk() int { return b.gate.eng.cfg.MinChunk }

// PushCtrl queues a ready control packet (highest priority).
func (b *Backlog) PushCtrl(p *Packet) { b.ctrl = append(b.ctrl, p) }

// PopCtrl dequeues the next control packet, or nil.
func (b *Backlog) PopCtrl() *Packet {
	if b.ctrlHead == len(b.ctrl) {
		return nil
	}
	p := b.ctrl[b.ctrlHead]
	b.ctrl[b.ctrlHead] = nil
	b.ctrlHead++
	if b.ctrlHead == len(b.ctrl) {
		b.ctrl = b.ctrl[:0]
		b.ctrlHead = 0
	}
	return p
}

// clearCtrl drops every queued control packet, releasing each to the
// packet pool (gate teardown).
func (b *Backlog) clearCtrl() {
	for i := b.ctrlHead; i < len(b.ctrl); i++ {
		b.ctrl[i].Release()
		b.ctrl[i] = nil
	}
	b.ctrl = b.ctrl[:0]
	b.ctrlHead = 0
}

// SegCount reports the number of pending segments.
func (b *Backlog) SegCount() int { return len(b.segs) - b.segHead }

// Seg returns the i-th pending segment without removing it.
func (b *Backlog) Seg(i int) *Unit { return b.segs[b.segHead+i] }

// PushSeg appends a segment to the pending queue.
func (b *Backlog) PushSeg(u *Unit) { b.segs = append(b.segs, u) }

// PopSeg removes and returns the head segment, or nil.
func (b *Backlog) PopSeg() *Unit {
	if b.segHead == len(b.segs) {
		return nil
	}
	u := b.segs[b.segHead]
	b.segs[b.segHead] = nil
	b.segHead++
	if b.segHead == len(b.segs) {
		b.segs = b.segs[:0]
		b.segHead = 0
	}
	return u
}

// TakeSeg removes and returns the i-th pending segment.
func (b *Backlog) TakeSeg(i int) *Unit {
	idx := b.segHead + i
	u := b.segs[idx]
	copy(b.segs[idx:], b.segs[idx+1:])
	b.segs[len(b.segs)-1] = nil
	b.segs = b.segs[:len(b.segs)-1]
	if b.segHead == len(b.segs) {
		b.segs = b.segs[:0]
		b.segHead = 0
	}
	return u
}

// pendingSegs returns the live span of the segment queue (engine
// teardown and purge paths; callers must not retain it).
func (b *Backlog) pendingSegs() []*Unit { return b.segs[b.segHead:] }

// filterSegs keeps only segments for which keep returns true, zeroing
// the vacated tail slots.
func (b *Backlog) filterSegs(keep func(*Unit) bool) {
	live := b.segs[b.segHead:]
	kept := live[:0]
	for _, u := range live {
		if keep(u) {
			kept = append(kept, u)
		}
	}
	for i := len(kept); i < len(live); i++ {
		live[i] = nil
	}
	b.segs = b.segs[:b.segHead+len(kept)]
	if b.segHead == len(b.segs) {
		b.segs = b.segs[:0]
		b.segHead = 0
	}
}

// clearSegs empties the segment queue.
func (b *Backlog) clearSegs() {
	for i := b.segHead; i < len(b.segs); i++ {
		b.segs[i] = nil
	}
	b.segs = b.segs[:0]
	b.segHead = 0
}

// Scratch returns an empty reusable []*Unit for a strategy assembling an
// aggregate. Hand the (possibly grown) slice back with StoreScratch once
// its units are consumed, so the next Schedule call reuses the backing
// array. The slice is per-backlog, hence per-gate: safe because a
// strategy runs owning the gate's progress domain.
func (b *Backlog) Scratch() []*Unit { return b.scratch[:0] }

// DiscardUnit returns a unit the strategy is dropping without scheduling
// (e.g. a hedged duplicate whose request was cancelled before any rail
// took it) to the pool. The caller must hold the only reference.
func (b *Backlog) DiscardUnit(u *Unit) { putUnit(u) }

// StoreScratch records s's backing array for reuse by the next Scratch.
func (b *Backlog) StoreScratch(s []*Unit) { b.scratch = s[:0] }

// BodyCount reports the number of granted rendezvous bodies.
func (b *Backlog) BodyCount() int { return len(b.bodies) }

// Body returns the i-th granted body.
func (b *Backlog) Body(i int) *Unit { return b.bodies[i] }

// Empty reports whether nothing at all is pending.
func (b *Backlog) Empty() bool {
	return b.ctrlHead == len(b.ctrl) && b.segHead == len(b.segs) && len(b.bodies) == 0
}

// MakeEager builds a data packet from one or more pending segments that
// the caller has popped, consuming the units (they return to the unit
// pool and must not be touched afterwards). With a single unit the
// payload aliases the application buffer (zero copy). Several units form
// an aggregate of [header|bytes] records — the paper's opportunistic
// aggregation — carried as a gather list: one arena lease holds the
// record headers and the records alias the application buffers, so the
// only copy is the driver's own (writev into the kernel, the ring write,
// or the frame encode). A simulated host is charged that copy here, as
// the paper's cost model charges aggregation. The lease is owned by the
// returned packet and travels with it until the engine releases the
// packet at send completion or rail failure.
func (b *Backlog) MakeEager(units ...*Unit) *Packet {
	if len(units) == 0 {
		panic("core: MakeEager with no units")
	}
	p := getPacket()
	if len(units) == 1 {
		u := units[0]
		p.Hdr = u.Hdr
		p.Hdr.Kind = KData
		p.Hdr.Agg = 0
		p.Hdr.PayLen = uint32(len(u.Data))
		p.Payload = u.Data
		p.senders = append(p.senders, senderRef{req: u.Req, bytes: len(u.Data)})
		putUnit(u)
		return p
	}
	p.frame = GetBuf(len(units) * HeaderLen)
	tag, msg := units[0].Hdr.Tag, units[0].Hdr.MsgID
	total := 0
	for i, u := range units {
		h := u.Hdr
		h.Kind = KData
		h.Agg = 0
		h.PayLen = uint32(len(u.Data))
		rec := p.frame.B[i*HeaderLen : (i+1)*HeaderLen]
		EncodeHeader(rec, &h)
		p.recs = append(p.recs, rec, u.Data)
		total += HeaderLen + len(u.Data)
		p.senders = append(p.senders, senderRef{req: u.Req, bytes: len(u.Data)})
		putUnit(u)
	}
	b.gate.eng.clock.Memcpy(total)
	p.Hdr = Header{Kind: KData, Agg: uint16(len(units)), Tag: tag, MsgID: msg, PayLen: uint32(total)}
	return p
}

// StartRdv registers u as a pending rendezvous body and returns the RTS
// packet announcing it. The body becomes schedulable (appears in Bodies)
// when the peer's CTS arrives.
func (b *Backlog) StartRdv(u *Unit) *Packet {
	g := b.gate
	g.nextRdv++
	u.RdvID = g.nextRdv
	g.rdvSend[u.RdvID] = u
	h := u.Hdr
	h.Kind = KRTS
	h.RdvID = u.RdvID
	h.PayLen = 0
	p := getPacket()
	p.Hdr = h
	p.senders = append(p.senders, senderRef{req: u.Req, bytes: 0})
	return p
}

// ChunkFrom carves the next chunk of at most max bytes, and never more
// than MaxPayload, from body u and returns it as a KChunk packet; max <=
// 0 asks for MaxPayload. When the body has no unscheduled bytes left it
// is removed from the granted list. The chunk payload aliases the
// application buffer.
func (b *Backlog) ChunkFrom(u *Unit, max int) *Packet {
	if len(u.spans) == 0 {
		panic("core: ChunkFrom on drained body " + u.String())
	}
	if max <= 0 || max > MaxPayload {
		max = MaxPayload
	}
	s := &u.spans[0]
	n := min(s.to-s.from, max)
	off := s.from
	s.from += n
	if s.from == s.to {
		u.spans = u.spans[1:]
	}
	h := u.Hdr
	h.Kind = KChunk
	h.RdvID = u.RdvID
	h.Off = uint64(off)
	h.PayLen = uint32(n)
	p := getPacket()
	p.Hdr = h
	p.Payload = u.Data[off : off+n]
	p.senders = append(p.senders, senderRef{req: u.Req, bytes: n})
	u.inflight++
	if len(u.spans) == 0 {
		b.removeBody(u)
	}
	return p
}

// ChunkSpan carves the specific byte range [from, to) from body u as a
// KChunk packet. The range must lie within a single unscheduled span
// (strategies planning pinned per-rail shares carve ranges they computed
// from the spans). When the body has no unscheduled bytes left it is
// removed from the granted list.
func (b *Backlog) ChunkSpan(u *Unit, from, to int) *Packet {
	if to <= from {
		panic(fmt.Sprintf("core: ChunkSpan empty range [%d,%d)", from, to))
	}
	found := -1
	for i, s := range u.spans {
		if s.from <= from && to <= s.to {
			found = i
			break
		}
	}
	if found < 0 {
		panic(fmt.Sprintf("core: ChunkSpan [%d,%d) not unscheduled in %s", from, to, u))
	}
	s := u.spans[found]
	repl := make([]span, 0, 2)
	if s.from < from {
		repl = append(repl, span{s.from, from})
	}
	if to < s.to {
		repl = append(repl, span{to, s.to})
	}
	u.spans = append(u.spans[:found], append(repl, u.spans[found+1:]...)...)
	h := u.Hdr
	h.Kind = KChunk
	h.RdvID = u.RdvID
	h.Off = uint64(from)
	h.PayLen = uint32(to - from)
	p := getPacket()
	p.Hdr = h
	p.Payload = u.Data[from:to]
	p.senders = append(p.senders, senderRef{req: u.Req, bytes: to - from})
	u.inflight++
	if len(u.spans) == 0 {
		b.removeBody(u)
	}
	return p
}

// FirstSpan reports the first unscheduled range of a body (ok=false when
// drained).
func (u *Unit) FirstSpan() (from, to int, ok bool) {
	if len(u.spans) == 0 {
		return 0, 0, false
	}
	return u.spans[0].from, u.spans[0].to, true
}

// Grant makes a rendezvous body schedulable. The engine calls this when
// the peer's CTS arrives; tests and alternative engines may call it
// directly to exercise strategies without a handshake.
func (b *Backlog) Grant(u *Unit) {
	if u.spans == nil {
		u.spans = []span{{0, len(u.Data)}}
	}
	b.bodies = append(b.bodies, u)
}

// regrant returns a byte range of a body to the schedulable pool (send
// failure recovery).
func (b *Backlog) regrant(u *Unit, from, to int) {
	u.spans = append(u.spans, span{from, to})
	for _, bu := range b.bodies {
		if bu == u {
			return
		}
	}
	b.bodies = append(b.bodies, u)
}

// removeBody drops u from the granted list, zeroing the vacated tail
// slot so the drained body isn't pinned against GC.
func (b *Backlog) removeBody(u *Unit) {
	for i, bu := range b.bodies {
		if bu == u {
			copy(b.bodies[i:], b.bodies[i+1:])
			b.bodies[len(b.bodies)-1] = nil
			b.bodies = b.bodies[:len(b.bodies)-1]
			return
		}
	}
}
