// Package relnet is the reliability subsystem: it wraps any unreliable
// datagram transport (Transport) in sequencing, cumulative + selective
// acknowledgements, RTO-based retransmission with exponential backoff
// and a capped retry budget, duplicate suppression and ack piggybacking,
// and exposes the result as a core.Driver. The engine above schedules
// requests over rails exactly as before; a rail that loses packets now
// retransmits them instead of failing, and a rail whose peer stays
// silent past the retry budget fails LOUDLY — one RailDown, never a
// hang.
//
// Design notes:
//
//   - Frames (core packet wire encodings) are fragmented into MTU-sized
//     segments. The sender keeps one master copy per segment and clones
//     a fresh lease per (re)transmission, so the engine's buffer-reuse
//     contract is satisfied the moment Send returns (SendComplete is
//     reported immediately, as the in-memory driver does).
//   - Every segment — data or ack — carries the sender's cumulative ack
//     and a 64-bit selective-ack bitmap, so acks piggyback on reverse
//     traffic and a standalone ack goes out only when no data is headed
//     the other way.
//   - One retransmit timer per rail guards the oldest unacked segment
//     (TCP-style); each fire retransmits that segment alone and doubles
//     the timeout, capped at 64x the initial RTO. Three duplicate-ack
//     hints trigger one fast retransmit per segment without waiting for
//     the timer.
//   - The RTO adapts from RTT samples (SRTT + 4*RTTVAR, Karn's rule:
//     only never-retransmitted segments are sampled), so a slow-but-
//     healthy rail (chaos bandwidth degradation, jitter) stretches its
//     timeout instead of drowning in spurious retransmissions.
//   - Time and timers come from the engine's core.Clock: wall time for
//     real sockets, the simulated host's clock for simulated rails —
//     where AfterFunc lands on the world's cancellable timers, so a
//     stopped retransmit timer cannot advance virtual time and inflate
//     makespans.
package relnet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"newmad/internal/core"
)

// ErrClosed reports a send on a closed driver.
var ErrClosed = errors.New("relnet: closed")

// Defaults for Config's zero values.
const (
	// DefaultWindow is the sender window: the number of unacked segments
	// allowed in flight. The selective-ack bitmap covers 64 segments, so
	// windows beyond 64 forgo fast retransmit for the tail.
	DefaultWindow = 64
	// DefaultRetryBudget is how many times one segment is retransmitted
	// before the rail is declared dead.
	DefaultRetryBudget = 8
	// minRTOFloor bounds the derived RTO from below on a simulated
	// host's clock; wallRTOFloor does the same for real time (where
	// timer and scheduling noise make microsecond timeouts meaningless).
	minRTOFloor  = 10 * time.Microsecond
	wallRTOFloor = 2 * time.Millisecond
	// rtoMaxFactor caps the exponential backoff at this multiple of the
	// initial RTO.
	rtoMaxFactor = 64
	// fastRetxDups is how many duplicate-ack hints trigger a fast
	// retransmit (TCP's classic threshold: tolerates mild reordering).
	fastRetxDups = 3
	// recvLimit bounds how far past the cumulative point the receiver
	// buffers out-of-order segments; anything beyond is dropped (the
	// sender's window keeps honest peers well inside it).
	recvLimit = 256
)

// Config parameterizes the reliability layer. The zero value derives
// everything from the transport (profile and MTU) and uses the wall
// clock.
type Config struct {
	// RTO is the initial (and minimum) retransmission timeout. Zero
	// derives it from the transport profile: 4x the rail latency plus
	// twice the time a full window of MTU-sized segments takes to
	// serialize, floored at 10us (simulated host) or 2ms (wall clock).
	// The estimator adapts it from RTT samples afterwards; the backoff
	// caps at 64x the initial RTO.
	RTO time.Duration
	// RetryBudget is the number of retransmissions of a single segment
	// tolerated before the rail fails. Zero means DefaultRetryBudget.
	RetryBudget int
	// Window is the max number of unacked segments in flight. Zero
	// means DefaultWindow.
	Window int
	// Clock supplies time and retransmit timers. Nil means the wall
	// clock (core.NewRealClock) and the 2ms RTO floor; anything else is
	// taken to be a simulated host's clock (the one its engine runs on,
	// e.g. a simnet.Host) and keeps the 10us floor, so timers and RTT
	// samples live in that host's virtual time.
	Clock core.Clock
}

// Stats counts protocol events since the driver was created.
type Stats struct {
	// SegsSent counts every segment transmission, including re-sends.
	SegsSent uint64
	// SegsRecv counts every DATA segment that arrived (including
	// duplicates).
	SegsRecv uint64
	// Retransmits counts re-sends (timeout and fast retransmit).
	Retransmits uint64
	// FastRetransmits counts re-sends triggered by duplicate-ack hints.
	FastRetransmits uint64
	// Timeouts counts RTO timer fires that re-sent a segment.
	Timeouts uint64
	// DupsDropped counts duplicate or out-of-range DATA segments the
	// receiver suppressed.
	DupsDropped uint64
	// AcksSent counts standalone ack datagrams.
	AcksSent uint64
	// AcksPiggybacked counts acks that rode outgoing data segments.
	AcksPiggybacked uint64
	// Garbage counts undecodable datagrams (treated as loss).
	Garbage uint64
}

// segState is one sender-side segment: the master copy plus retransmit
// bookkeeping.
type segState struct {
	seq      uint64
	data     *core.Buf // master datagram; nil once sacked (no retransmit needed)
	sentAt   int64     // clock ns of the last transmission
	retries  int
	sacked   bool
	dupHints int
	fastDone bool // one fast retransmit per segment
}

// rseg is one receiver-side out-of-order segment awaiting its
// predecessors.
type rseg struct {
	buf      *core.Buf // the whole datagram lease
	pay      []byte    // payload view into buf
	flags    uint8
	frameOff uint32
	frameLen uint32
}

// Driver implements core.Driver over a Transport. Build one with Wrap.
type Driver struct {
	tr     Transport
	clock  core.Clock
	maxPay int
	window int
	budget int
	rtoMin time.Duration
	rtoMax time.Duration

	mu      sync.Mutex
	rail    int
	ev      core.Events
	prebind []core.DriverEvent // events raised before Bind
	closed  bool
	failed  bool
	failErr error
	// inflight counts the sections between a locked pass and the end of
	// its flush and delivery (see finish): Close waits for them, so no
	// lease a pass collected is still on its way to the transport or the
	// engine when Close returns.
	inflight sync.WaitGroup

	// sender
	nextSeq uint64 // next sequence number to assign (1-based)
	// win is the sent-but-unacked window in sequence order: segments
	// join at the tail as they are pumped and leave from the head as the
	// cumulative ack passes them, so win[i].seq == win[0].seq+i. Every
	// walk over it is in sequence order, which keeps the RTT estimator
	// and the fast-retransmit batch deterministic.
	win []*segState
	txq []*segState // segmented, not yet transmitted (window full)

	// adaptive RTO
	srtt    time.Duration
	rttvar  time.Duration
	hasSRTT bool
	curRTO  time.Duration

	stopTimer func() // cancels the armed retransmit timer; nil when none
	timerGen  uint64

	// receiver
	cumRecv uint64
	ooo     map[uint64]*rseg
	asm     *core.Buf // frame under reassembly
	asmOff  uint32
	ackOwed bool

	stats Stats
}

// Wrap decorates tr with the reliability protocol. It installs the
// transport's delivery and failure callbacks, so call it before any
// traffic flows.
func Wrap(tr Transport, cfg Config) *Driver {
	d := &Driver{
		tr:      tr,
		clock:   cfg.Clock,
		window:  cfg.Window,
		budget:  cfg.RetryBudget,
		ooo:     make(map[uint64]*rseg),
		nextSeq: 1,
	}
	floor := minRTOFloor
	if d.clock == nil {
		d.clock = core.NewRealClock()
		floor = wallRTOFloor
	}
	mtu := tr.MTU()
	if mtu <= segHdrLen {
		panic(fmt.Sprintf("relnet: MTU %d does not fit the %d-byte segment header", mtu, segHdrLen))
	}
	d.maxPay = mtu - segHdrLen
	if d.window <= 0 {
		d.window = DefaultWindow
	}
	d.win = make([]*segState, 0, d.window)
	if d.budget <= 0 {
		d.budget = DefaultRetryBudget
	}
	d.rtoMin = cfg.RTO
	if d.rtoMin <= 0 {
		prof := tr.Profile()
		var ser time.Duration
		if prof.Bandwidth > 0 {
			ser = time.Duration(float64(d.window*mtu) / prof.Bandwidth * 1e9)
		}
		d.rtoMin = 4*prof.Latency + 2*ser
		if d.rtoMin < floor {
			d.rtoMin = floor
		}
	}
	d.rtoMax = rtoMaxFactor * d.rtoMin
	d.curRTO = d.rtoMin
	tr.SetRecv(d.recvDatagram)
	tr.SetFail(d.transportFailed)
	return d
}

// Name implements core.Driver.
func (d *Driver) Name() string { return "rel+" + d.tr.Name() }

// Profile implements core.Driver.
func (d *Driver) Profile() core.Profile { return d.tr.Profile() }

// Bind implements core.Driver. Events raised before Bind (a fast peer's
// datagrams can land between Wrap and gate attachment) were buffered
// and are delivered on the next event.
func (d *Driver) Bind(rail int, ev core.Events) {
	d.mu.Lock()
	d.rail = rail
	d.ev = ev
	d.mu.Unlock()
	d.deliver(nil)
}

// Stats returns a snapshot of the protocol counters.
func (d *Driver) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// RTO returns the current adaptive retransmission timeout (tests).
func (d *Driver) RTO() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.curRTO
}

// Send implements core.Driver: the packet is encoded, fragmented into
// MTU-sized segments and queued; SendComplete is reported immediately
// (the layer owns copies, so the caller's payload is free for reuse).
// Transmission, loss recovery and delivery ordering are the protocol's
// business from here on.
func (d *Driver) Send(p *core.Packet) error {
	var out []*core.Buf
	var evs []core.DriverEvent
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", core.ErrRailDown, ErrClosed)
	}
	if d.failed {
		err := d.failErr
		d.mu.Unlock()
		return err
	}
	wire := p.WireLen()
	tmp := core.GetBuf(wire)
	p.EncodeTo(tmp.B)
	for off := 0; off == 0 || off < wire; off += d.maxPay {
		end := off + d.maxPay
		if end > wire {
			end = wire
		}
		pay := tmp.B[off:end]
		m := core.GetBuf(segHdrLen + len(pay))
		h := segHeader{
			kind: segData, payLen: uint32(len(pay)), seq: d.nextSeq,
			frameOff: uint32(off), frameLen: uint32(wire),
		}
		if end == wire {
			h.flags = segFlagLast
		}
		encodeSeg(m.B, &h)
		copy(m.B[segHdrLen:], pay)
		d.txq = append(d.txq, &segState{seq: d.nextSeq, data: m})
		d.nextSeq++
	}
	tmp.Release()
	d.pumpLocked(&out)
	evs = append(evs, core.DriverEvent{Kind: core.EvSendComplete})
	d.finish(out, evs)
	return nil
}

// Close implements core.Driver: idempotent; releases all protocol state
// and closes the transport (joining its delivery goroutines, so no
// lease stays in flight past Close).
func (d *Driver) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.inflight.Wait()
		return nil
	}
	d.closed = true
	d.releaseStateLocked()
	for _, e := range d.prebind {
		if e.Kind == core.EvArrive && e.Pkt != nil {
			e.Pkt.Release()
		}
	}
	d.prebind = nil
	d.mu.Unlock()
	d.inflight.Wait()
	return d.tr.Close()
}

// Transport returns the wrapped transport (tests, stats drilling).
func (d *Driver) Transport() Transport { return d.tr }

// releaseStateLocked returns every lease the protocol holds.
func (d *Driver) releaseStateLocked() {
	for _, s := range d.win {
		if s.data != nil {
			s.data.Release()
		}
	}
	clear(d.win)
	d.win = d.win[:0]
	for _, s := range d.txq {
		s.data.Release()
	}
	d.txq = nil
	for seq, r := range d.ooo {
		r.buf.Release()
		delete(d.ooo, seq)
	}
	if d.asm != nil {
		d.asm.Release()
		d.asm = nil
	}
	d.timerGen++
	if d.stopTimer != nil {
		d.stopTimer()
		d.stopTimer = nil
	}
}

// failLocked declares the rail dead: exactly one RailDown, all state
// released, every later Send refused with the same error.
func (d *Driver) failLocked(cause error, evs *[]core.DriverEvent) {
	if d.failed || d.closed {
		return
	}
	d.failed = true
	d.failErr = fmt.Errorf("%w: relnet: %v", core.ErrRailDown, cause)
	d.releaseStateLocked()
	*evs = append(*evs, core.DriverEvent{Kind: core.EvRailDown, Err: d.failErr})
}

// transportFailed is the transport's asynchronous death callback
// (socket reader error, simulated NIC down).
func (d *Driver) transportFailed(err error) {
	var evs []core.DriverEvent
	d.mu.Lock()
	d.failLocked(fmt.Errorf("transport failed: %v", err), &evs)
	d.mu.Unlock()
	d.deliver(evs)
}

// pumpLocked moves queued segments into the window while it has room,
// transmitting each once, and keeps the retransmit timer armed while
// anything is in flight.
func (d *Driver) pumpLocked(out *[]*core.Buf) {
	if d.failed || d.closed {
		return
	}
	for len(d.txq) > 0 && len(d.win) < d.window {
		seg := d.txq[0]
		d.txq[0] = nil
		d.txq = d.txq[1:]
		d.win = append(d.win, seg)
		d.transmitLocked(seg, out)
	}
	if d.stopTimer == nil && len(d.win) > 0 {
		d.armTimerLocked()
	}
}

// transmitLocked stamps the freshest ack state into seg's master copy
// and queues a clone for the wire. Clones, not the master: the master
// must survive for retransmission, and the transport consumes its
// argument.
func (d *Driver) transmitLocked(seg *segState, out *[]*core.Buf) {
	stampAck(seg.data.B, d.cumRecv, d.sackLocked())
	if d.ackOwed {
		d.ackOwed = false
		d.stats.AcksPiggybacked++
	}
	seg.sentAt = d.clock.Now()
	if seg.retries > 0 {
		d.stats.Retransmits++
	}
	d.stats.SegsSent++
	c := core.GetBuf(len(seg.data.B))
	copy(c.B, seg.data.B)
	*out = append(*out, c)
}

// finish ends a locked pass: it releases the lock, flushes out and
// delivers evs. A pass of an open driver is counted in inflight before
// the lock goes, so Close — which sets closed under the same lock and
// then waits — cannot return while a retransmit timer, a Send or a
// receive is between its lease copies and their hand-over. Close must
// not be called from inside the driver's own event callbacks (the
// core.Driver contract), which run within such a pass.
func (d *Driver) finish(out []*core.Buf, evs []core.DriverEvent) {
	open := !d.closed
	if open {
		d.inflight.Add(1)
	}
	d.mu.Unlock()
	d.flush(out)
	d.deliver(evs)
	if open {
		d.inflight.Done()
	}
}

// flush hands collected datagrams to the transport, OUTSIDE the
// driver lock: a loopback transport delivers synchronously, and the
// peer's ack may re-enter this driver before Send returns.
func (d *Driver) flush(out []*core.Buf) {
	for _, f := range out {
		// A refused datagram is indistinguishable from a lost one; the
		// retransmit machinery recovers or, if the transport stays dead,
		// the retry budget fails the rail loudly.
		_ = d.tr.Send(f)
	}
}

// armTimerLocked (re)starts the retransmit countdown at the current
// RTO. The generation counter invalidates any already-scheduled fire:
// wall timers can race Stop, and a stale fire must be a no-op.
func (d *Driver) armTimerLocked() {
	d.timerGen++
	if d.stopTimer != nil {
		d.stopTimer()
		d.stopTimer = nil
	}
	if d.closed || d.failed || len(d.win) == 0 {
		return
	}
	gen := d.timerGen
	d.stopTimer = d.clock.AfterFunc(int64(d.curRTO), func() { d.onTimer(gen) })
}

// onTimer is the RTO expiry: retransmit the oldest unacked segment,
// back the timeout off, and fail the rail when the segment's retry
// budget is gone.
func (d *Driver) onTimer(gen uint64) {
	var out []*core.Buf
	var evs []core.DriverEvent
	d.mu.Lock()
	if gen != d.timerGen || d.closed || d.failed {
		d.mu.Unlock()
		return
	}
	d.stopTimer = nil
	var oldest *segState
	for _, s := range d.win {
		if s.data != nil {
			oldest = s
			break
		}
	}
	if oldest == nil {
		// Everything in flight is selectively acked; the cumulative ack
		// is just late. Keep waiting.
		d.armTimerLocked()
	} else {
		oldest.retries++
		if oldest.retries > d.budget {
			d.failLocked(fmt.Errorf("retry budget exhausted: segment %d unacked after %d retransmissions (rto %v)",
				oldest.seq, oldest.retries-1, d.curRTO), &evs)
		} else {
			d.stats.Timeouts++
			d.transmitLocked(oldest, &out)
			d.curRTO *= 2
			if d.curRTO > d.rtoMax {
				d.curRTO = d.rtoMax
			}
			d.armTimerLocked()
		}
	}
	d.finish(out, evs)
}

// sampleRTTLocked feeds one valid RTT sample (Karn: from a segment
// acked on its first transmission) into the SRTT/RTTVAR estimator and
// recomputes the RTO.
func (d *Driver) sampleRTTLocked(ns int64) {
	s := time.Duration(ns)
	if s < 0 {
		return
	}
	if !d.hasSRTT {
		d.srtt = s
		d.rttvar = s / 2
		d.hasSRTT = true
	} else {
		diff := s - d.srtt
		if diff < 0 {
			diff = -diff
		}
		d.rttvar = (3*d.rttvar + diff) / 4
		d.srtt = (7*d.srtt + s) / 8
	}
	rto := d.srtt + 4*d.rttvar
	if rto < d.rtoMin {
		rto = d.rtoMin
	}
	if rto > d.rtoMax {
		rto = d.rtoMax
	}
	d.curRTO = rto
}

// onAckLocked digests the ack state carried by any arriving segment:
// retire cumulatively-acked segments, mark selectively-acked ones,
// count duplicate-ack hints and fast-retransmit on the third.
func (d *Driver) onAckLocked(cum, sack uint64, out *[]*core.Buf, evs *[]core.DriverEvent) {
	now := d.clock.Now()
	acked := 0
	for _, seg := range d.win {
		if seg.seq > cum {
			break
		}
		if seg.retries == 0 && seg.data != nil {
			d.sampleRTTLocked(now - seg.sentAt)
		}
		if seg.data != nil {
			seg.data.Release()
		}
		acked++
	}
	progress := acked > 0
	if progress {
		n := copy(d.win, d.win[acked:])
		clear(d.win[n:])
		d.win = d.win[:n]
	}
	var maxSacked uint64
	for i := 0; i < 64; i++ {
		if sack&(1<<uint(i)) == 0 {
			continue
		}
		seq := cum + 1 + uint64(i)
		if seg := d.inWinLocked(seq); seg != nil && !seg.sacked {
			seg.sacked = true
			if seg.retries == 0 {
				d.sampleRTTLocked(now - seg.sentAt)
			}
			seg.data.Release()
			seg.data = nil
			progress = true
		}
		if seq > maxSacked {
			maxSacked = seq
		}
	}
	// A sack above an unsacked segment is evidence that segment was
	// lost (its successors arrived). Three such hints trigger one fast
	// retransmit, without waiting for the RTO.
	if maxSacked > 0 {
		for _, seg := range d.win {
			if seg.seq >= maxSacked || seg.sacked || seg.data == nil {
				continue
			}
			seg.dupHints++
			if seg.dupHints >= fastRetxDups && !seg.fastDone {
				seg.fastDone = true
				seg.retries++
				if seg.retries > d.budget {
					d.failLocked(fmt.Errorf("retry budget exhausted: segment %d (fast retransmit)", seg.seq), evs)
					return
				}
				d.stats.FastRetransmits++
				d.transmitLocked(seg, out)
			}
		}
	}
	if progress {
		// Restart the countdown from the latest forward progress.
		d.armTimerLocked()
	}
}

// inWinLocked returns the window's segment with sequence number seq, or
// nil if seq is not in flight.
func (d *Driver) inWinLocked(seq uint64) *segState {
	if len(d.win) == 0 || seq < d.win[0].seq || seq-d.win[0].seq >= uint64(len(d.win)) {
		return nil
	}
	return d.win[seq-d.win[0].seq]
}

// sackLocked builds the selective-ack bitmap over the 64 sequence
// numbers after the cumulative point.
func (d *Driver) sackLocked() uint64 {
	var bits uint64
	for seq := range d.ooo {
		if off := seq - d.cumRecv - 1; off < 64 {
			bits |= 1 << uint(off)
		}
	}
	return bits
}

// recvDatagram is the transport delivery callback: decode, digest the
// piggybacked acks, absorb in-order data, buffer out-of-order data,
// suppress duplicates, and ack.
func (d *Driver) recvDatagram(f *core.Buf) {
	h, err := decodeSeg(f.B)
	if err != nil {
		f.Release()
		d.mu.Lock()
		d.stats.Garbage++
		d.mu.Unlock()
		return
	}
	var out []*core.Buf
	var evs []core.DriverEvent
	d.mu.Lock()
	if d.closed || d.failed {
		d.mu.Unlock()
		f.Release()
		return
	}
	d.onAckLocked(h.cumAck, h.sack, &out, &evs)
	if h.kind == segData && !d.failed {
		d.stats.SegsRecv++
		d.ackOwed = true
		switch {
		case h.seq <= d.cumRecv, d.ooo[h.seq] != nil:
			d.stats.DupsDropped++
			f.Release()
		case h.seq > d.cumRecv+recvLimit:
			d.stats.DupsDropped++
			f.Release()
		default:
			d.ooo[h.seq] = &rseg{
				buf: f, pay: f.B[segHdrLen : segHdrLen+int(h.payLen)],
				flags: h.flags, frameOff: h.frameOff, frameLen: h.frameLen,
			}
			for {
				rs := d.ooo[d.cumRecv+1]
				if rs == nil {
					break
				}
				delete(d.ooo, d.cumRecv+1)
				d.cumRecv++
				d.absorbLocked(rs, &evs)
				if d.failed {
					break
				}
			}
		}
	} else if h.kind != segData {
		f.Release()
	}
	if !d.failed && !d.closed {
		d.pumpLocked(&out)
		if d.ackOwed {
			// No outgoing data carried the ack; send it standalone.
			d.ackOwed = false
			d.stats.AcksSent++
			a := core.GetBuf(segHdrLen)
			encodeSeg(a.B, &segHeader{kind: segAck, cumAck: d.cumRecv, sack: d.sackLocked()})
			out = append(out, a)
		}
	}
	d.finish(out, evs)
}

// absorbLocked integrates the next in-order segment into the frame
// under reassembly and completes the frame on its last segment. A
// segment inconsistent with reassembly state is a protocol violation
// (impossible from a correct peer, however lossy the link) and fails
// the rail loudly.
func (d *Driver) absorbLocked(rs *rseg, evs *[]core.DriverEvent) {
	if d.asm == nil {
		if rs.frameOff != 0 {
			rs.buf.Release()
			d.failLocked(fmt.Errorf("protocol violation: frame starts at offset %d", rs.frameOff), evs)
			return
		}
		if rs.frameLen > core.HeaderLen+core.MaxPayload {
			rs.buf.Release()
			d.failLocked(fmt.Errorf("protocol violation: %d-byte frame exceeds %d", rs.frameLen, core.HeaderLen+core.MaxPayload), evs)
			return
		}
		if rs.flags&segFlagLast != 0 && int(rs.frameLen) == len(rs.pay) {
			// Whole frame in one segment: deliver zero-copy by reslicing
			// the datagram lease down to the frame bytes.
			rs.buf.B = rs.pay
			d.completeFrameLocked(rs.buf, evs)
			return
		}
		d.asm = core.GetBuf(int(rs.frameLen))
		d.asmOff = 0
	}
	if uint64(rs.frameOff) != uint64(d.asmOff) || int(rs.frameLen) != len(d.asm.B) ||
		int(rs.frameOff)+len(rs.pay) > len(d.asm.B) {
		rs.buf.Release()
		d.failLocked(fmt.Errorf("protocol violation: segment at %d/%d does not continue frame at %d/%d",
			rs.frameOff, rs.frameLen, d.asmOff, len(d.asm.B)), evs)
		return
	}
	copy(d.asm.B[rs.frameOff:], rs.pay)
	d.asmOff += uint32(len(rs.pay))
	last := rs.flags&segFlagLast != 0
	rs.buf.Release()
	if !last {
		return
	}
	if int(d.asmOff) != len(d.asm.B) {
		d.failLocked(fmt.Errorf("protocol violation: frame ends at %d of %d", d.asmOff, len(d.asm.B)), evs)
		return
	}
	frame := d.asm
	d.asm = nil
	d.completeFrameLocked(frame, evs)
}

// completeFrameLocked turns a reassembled frame lease into an engine
// packet arrival. The frame survived sequencing and retransmission, so
// a decode failure here is a peer bug, not line noise: fail loudly.
func (d *Driver) completeFrameLocked(frame *core.Buf, evs *[]core.DriverEvent) {
	pkt, err := core.UnmarshalFrame(frame)
	if err != nil {
		d.failLocked(fmt.Errorf("corrupt frame after reassembly: %v", err), evs)
		return
	}
	*evs = append(*evs, core.DriverEvent{Kind: core.EvArrive, Pkt: pkt})
}

// deliver dispatches collected events to the engine, outside the
// driver lock (callbacks may re-enter Send). Before Bind the events are
// buffered; multi-event groups go through the batched sink when the
// engine offers one, costing a single progress-domain acquisition.
func (d *Driver) deliver(evs []core.DriverEvent) {
	d.mu.Lock()
	ev := d.ev
	rail := d.rail
	if ev == nil {
		d.prebind = append(d.prebind, evs...)
		d.mu.Unlock()
		return
	}
	if len(d.prebind) > 0 {
		evs = append(d.prebind, evs...)
		d.prebind = nil
	}
	d.mu.Unlock()
	if len(evs) == 0 {
		return
	}
	if be, ok := ev.(core.BatchEvents); ok && len(evs) > 1 {
		b := core.GetEventBatch()
		for _, e := range evs {
			b.Add(e)
		}
		be.DeliverBatch(rail, b)
		return
	}
	for _, e := range evs {
		switch e.Kind {
		case core.EvSendComplete:
			ev.SendComplete(rail)
		case core.EvSendFailed:
			ev.SendFailed(rail, e.Pkt, e.Err)
		case core.EvArrive:
			ev.Arrive(rail, e.Pkt)
		case core.EvRailDown:
			ev.RailDown(rail, e.Err)
		}
	}
}

var _ core.Driver = (*Driver)(nil)
