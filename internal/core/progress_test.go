package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// injectorDrv is an event-driven test driver: sends complete synchronously
// and are recorded, and tests can inject arbitrary (including corrupt)
// arrivals through the captured Events.
type injectorDrv struct {
	closed atomic.Bool

	mu   sync.Mutex
	rail int
	ev   core.Events
	// sent snapshots headers, not packets: the engine recycles a packet
	// once its send completes, so retaining the pointer is illegal.
	sent []core.Header
}

func (d *injectorDrv) Name() string          { return "injector" }
func (d *injectorDrv) Profile() core.Profile { return memdrv.DefaultProfile() }
func (d *injectorDrv) Close() error          { d.closed.Store(true); return nil }
func (d *injectorDrv) Bind(rail int, ev core.Events) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rail, d.ev = rail, ev
}

func (d *injectorDrv) Send(p *core.Packet) error {
	d.mu.Lock()
	d.sent = append(d.sent, p.Hdr)
	rail, ev := d.rail, d.ev
	d.mu.Unlock()
	ev.SendComplete(rail)
	return nil
}

func (d *injectorDrv) inject(p *core.Packet) {
	d.mu.Lock()
	rail, ev := d.rail, d.ev
	d.mu.Unlock()
	ev.Arrive(rail, p)
}

func injectorGate(t *testing.T) (*core.Engine, *core.Gate, *injectorDrv) {
	t.Helper()
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	g := eng.NewGate("peer")
	drv := &injectorDrv{}
	g.AddRail(drv)
	return eng, g, drv
}

func dataHdr(tag uint32, msg uint64, n int) core.Header {
	return core.Header{
		Kind: core.KData, Tag: tag, MsgID: msg, MsgSegs: 1,
		MsgLen: uint64(n), SegLen: uint64(n), PayLen: uint32(n),
	}
}

// TestWaitBlocksEventDrivenNoPoll is the notification regression test: a
// blocked Wait is woken by the completing event itself, delivered from
// another goroutine, with nothing pumping the rail.
func TestWaitBlocksEventDrivenNoPoll(t *testing.T) {
	eng, g, drv := injectorGate(t)
	buf := make([]byte, 8)
	rr := g.Irecv(1, buf)
	waitErr := make(chan error, 1)
	go func() { waitErr <- eng.Wait(rr) }()
	// Give the waiter time to park on the completion channel.
	time.Sleep(20 * time.Millisecond)
	if rr.Done() {
		t.Fatal("request completed before anything arrived")
	}
	payload := []byte("notify!!")
	drv.inject(&core.Packet{Hdr: dataHdr(1, 0, len(payload)), Payload: payload})
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("completion event did not wake the blocked Wait")
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestConcurrentWaitersSameRequest(t *testing.T) {
	eng, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 4))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = eng.Wait(rr)
		}()
	}
	time.Sleep(10 * time.Millisecond)
	drv.inject(&core.Packet{Hdr: dataHdr(1, 0, 4), Payload: []byte("abcd")})
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
}

// Corrupt wire input must fail the rail (and, with no rails left, the
// gate's outstanding requests) — never panic the process.

func TestCorruptAggregateFailsRail(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 64))
	// Agg claims two records but the payload is garbage.
	drv.inject(&core.Packet{
		Hdr:     core.Header{Kind: core.KData, Agg: 2, Tag: 1, PayLen: 5},
		Payload: []byte("junk!"),
	})
	if !g.Rails()[0].Down() {
		t.Fatal("corrupt aggregate did not fail the rail")
	}
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("posted receive not failed after the gate lost its last rail")
	}
}

func TestAggregateRecordOverrunFailsRail(t *testing.T) {
	_, g, drv := injectorGate(t)
	// A well-formed record header whose PayLen points past the packet.
	var rec [core.HeaderLen]byte
	h := dataHdr(1, 0, 4096)
	core.EncodeHeader(rec[:], &h)
	drv.inject(&core.Packet{
		Hdr:     core.Header{Kind: core.KData, Agg: 1, Tag: 1, PayLen: uint32(len(rec))},
		Payload: rec[:],
	})
	if !g.Rails()[0].Down() {
		t.Fatal("overrunning aggregate record did not fail the rail")
	}
}

func TestUnknownCTSFailsRail(t *testing.T) {
	_, g, drv := injectorGate(t)
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.KCTS, RdvID: 42}})
	if !g.Rails()[0].Down() {
		t.Fatal("CTS for unknown rendezvous did not fail the rail")
	}
}

func TestUnknownChunkFailsRail(t *testing.T) {
	_, g, drv := injectorGate(t)
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.KChunk, RdvID: 42, PayLen: 3}, Payload: []byte("xyz")})
	if !g.Rails()[0].Down() {
		t.Fatal("chunk for unknown rendezvous did not fail the rail")
	}
}

func TestBadKindFailsRail(t *testing.T) {
	_, g, drv := injectorGate(t)
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.Kind(99)}})
	if !g.Rails()[0].Down() {
		t.Fatal("unknown packet kind did not fail the rail")
	}
}

func TestOffsetOverrunFailsRecv(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 16))
	// MsgLen fits the buffer but the segment offset points past it.
	h := core.Header{
		Kind: core.KData, Tag: 1, MsgID: 0, MsgSegs: 1,
		MsgLen: 8, SegLen: 8, MsgOff: 1 << 40, PayLen: 8,
	}
	drv.inject(&core.Packet{Hdr: h, Payload: make([]byte, 8)})
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("out-of-range segment offset did not fail the receive")
	}
}

func TestChunkOffsetOverflowFailsRail(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 64<<10))
	// Establish a rendezvous sink the normal way (RTS for the posted
	// receive), then send a chunk whose offset wraps uint64.
	rts := core.Header{
		Kind: core.KRTS, Tag: 1, MsgID: 0, MsgSegs: 1,
		MsgLen: 64 << 10, SegLen: 64 << 10, RdvID: 7,
	}
	drv.inject(&core.Packet{Hdr: rts})
	ch := core.Header{Kind: core.KChunk, RdvID: 7, Off: ^uint64(0) - 2, PayLen: 8}
	drv.inject(&core.Packet{Hdr: ch, Payload: make([]byte, 8)})
	if !g.Rails()[0].Down() {
		t.Fatal("overflowing chunk offset did not fail the rail")
	}
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("receive not failed after the gate lost its last rail")
	}
}

func TestEagerOffsetOverflowFailsRecv(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 16))
	h := core.Header{
		Kind: core.KData, Tag: 1, MsgID: 0, MsgSegs: 1,
		MsgLen: 8, SegLen: 8, MsgOff: ^uint64(0) - 2, PayLen: 8,
	}
	drv.inject(&core.Packet{Hdr: h, Payload: make([]byte, 8)})
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("wrapping segment offset did not fail the receive")
	}
}

func TestHugeMsgLenFailsRecvEager(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 16))
	// MsgLen with the top bit set must not wrap negative through int
	// and sneak past the capacity check.
	h := core.Header{
		Kind: core.KData, Tag: 1, MsgID: 0, MsgSegs: 1,
		MsgLen: 1 << 63, SegLen: 8, PayLen: 8,
	}
	drv.inject(&core.Packet{Hdr: h, Payload: make([]byte, 8)})
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("eager MsgLen >= 2^63 did not fail the receive")
	}
}

func TestHugeMsgLenFailsRecvRendezvous(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 16))
	h := core.Header{
		Kind: core.KRTS, Tag: 1, MsgID: 0, MsgSegs: 1,
		MsgLen: 1 << 63, SegLen: 1 << 63, RdvID: 3,
	}
	drv.inject(&core.Packet{Hdr: h})
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("rendezvous MsgLen >= 2^63 did not fail the receive")
	}
}

// TestSubmitAfterGateDeathFails: once the last rail died and failGate
// ran, new sends and receives must fail immediately rather than queue
// work nothing will ever drain.
func TestSubmitAfterGateDeathFails(t *testing.T) {
	_, g, drv := injectorGate(t)
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.Kind(99)}}) // kill the only rail
	if !g.Rails()[0].Down() {
		t.Fatal("rail not down")
	}
	sr := g.Isend(1, []byte("late"))
	if !sr.Done() || sr.Err() == nil {
		t.Fatal("send on a dead gate did not fail immediately")
	}
	rr := g.Irecv(1, make([]byte, 8))
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("recv on a dead gate did not fail immediately")
	}
}

// TestCloseWakesBlockedWait: Engine.Close fails outstanding requests, so
// a goroutine parked in Wait returns ErrEngineClosed instead of sleeping
// forever on rails nobody will pump again.
func TestCloseWakesBlockedWait(t *testing.T) {
	eng, g, _ := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 8))
	waitErr := make(chan error, 1)
	go func() { waitErr <- eng.Wait(rr) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("Wait returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still parked after Close")
	}
}

// holdDrv accepts sends and never completes them: the rail stays busy,
// modelling a packet stuck in flight.
type holdDrv struct{ injectorDrv }

func (d *holdDrv) Send(p *core.Packet) error { return nil }

// TestCloseFailsInFlightRequests: a request whose packet is in flight
// (posted, completion never delivered) must be failed by Close, not left
// for a Wait to park on forever.
func TestCloseFailsInFlightRequests(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	g := eng.NewGate("peer")
	g.AddRail(&holdDrv{})
	sr := g.Isend(1, []byte("stuck"))
	if sr.Done() {
		t.Fatal("send completed on a rail that never completes")
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- eng.Wait(sr) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("in-flight request not failed by Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait on an in-flight request still parked after Close")
	}
}

// TestRailFailurePurgesFailedRequestsUnits: when a rail failure error-
// completes an in-flight request, the request's still-queued segments
// must leave the backlog — the application may reuse those buffers the
// moment the request completes.
func TestRailFailurePurgesFailedRequestsUnits(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.NewFIFO(0)})
	g := eng.NewGate("peer")
	hold := &holdDrv{}
	g.AddRail(hold) // rail 0: FIFO's pinned rail, never completes
	g.AddRail(&injectorDrv{})
	segs := [][]byte{fill(100, 1), fill(100, 2), fill(100, 3)}
	sr := g.Isendv(1, segs)
	if got := g.Backlog().SegCount(); got != 2 {
		t.Fatalf("SegCount = %d, want 2 queued behind the in-flight segment", got)
	}
	hold.inject(&core.Packet{Hdr: core.Header{Kind: core.Kind(99)}}) // fail rail 0
	if sr.Done() {
		t.Fatal("request completed while its packet may still be read by the failed rail's driver")
	}
	hold.completeOne() // the driver's late completion of the orphaned packet
	if !sr.Done() || sr.Err() == nil {
		t.Fatal("request with packet in flight on the failed rail did not error")
	}
	if got := g.Backlog().SegCount(); got != 0 {
		t.Fatalf("SegCount = %d after failure, want 0 (stale units still queued)", got)
	}
	// The failed rail's driver must be closed (asynchronously) so the
	// peer observes the failure and nothing keeps buffering frames.
	deadline := time.Now().Add(5 * time.Second)
	for !hold.closed.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !hold.closed.Load() {
		t.Fatal("failed rail's driver was never closed")
	}
}

// TestMarkDownWithInFlightOnPolledRail: MarkDown promises the in-flight
// packet completes. On a rail whose completion arrives later from another
// goroutine — as a socket driver's I/O goroutine delivers it — the driver
// must stay open until that completion drains, and only then be retired.
func TestMarkDownWithInFlightOnPolledRail(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.NewFIFO(0)})
	g := eng.NewGate("peer")
	drv := &holdDrv{}
	g.AddRail(drv)
	sr := g.Isend(1, []byte("in flight"))
	if sr.Done() {
		t.Fatal("send completed before its driver reported it")
	}
	g.Rails()[0].MarkDown()
	if drv.closed.Load() {
		t.Fatal("MarkDown closed the driver with a packet still in flight")
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- eng.Wait(sr) }()
	go drv.completeOne()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("in-flight packet on a MarkDown'd rail did not complete cleanly: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung: MarkDown stranded the in-flight completion")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !drv.closed.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !drv.closed.Load() {
		t.Fatal("drained MarkDown'd rail was never retired")
	}
}

// TestAbortFailsPostedRecv: a sender-side KAbort fails the matching
// posted receive (eager-partial and accepted-rendezvous variants)
// instead of leaving it waiting for bytes that will never come.
func TestAbortFailsPostedRecv(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 200))
	// First record of a two-segment message lands...
	h := core.Header{
		Kind: core.KData, Tag: 1, MsgID: 0, MsgSegs: 2,
		MsgLen: 200, SegLen: 100, PayLen: 100,
	}
	drv.inject(&core.Packet{Hdr: h, Payload: make([]byte, 100)})
	if rr.Done() {
		t.Fatal("receive completed on half a message")
	}
	// ...then the sender aborts the message.
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.KAbort, Tag: 1, MsgID: 0}})
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("abort did not fail the partially received message")
	}
	if g.Rails()[0].Down() {
		t.Fatal("abort handling must not fail the rail")
	}
}

func TestAbortBeforeRecvPostedFailsLateRecv(t *testing.T) {
	_, g, drv := injectorGate(t)
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.KAbort, Tag: 3, MsgID: 0}})
	rr := g.Irecv(3, make([]byte, 8))
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("receive posted after an abort did not fail")
	}
}

// completeOne delivers one send completion on a holdDrv, as if the NIC
// finally finished the posted packet.
func (d *holdDrv) completeOne() {
	d.mu.Lock()
	rail, ev := d.rail, d.ev
	d.mu.Unlock()
	ev.SendComplete(rail)
}

// TestRailFailureDefersCompletionWhileInFlightElsewhere: a request with
// packets on two rails must not complete when one rail dies — either
// rail's driver may still be reading the buffers — but must complete
// (with the failure error) once both packets drain.
func TestRailFailureDefersCompletionWhileInFlightElsewhere(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	g := eng.NewGate("peer")
	dying := &holdDrv{}
	busy := &holdDrv{}
	g.AddRail(dying)
	g.AddRail(busy)
	sr := g.Isendv(1, [][]byte{fill(100, 1), fill(100, 2)}) // one packet per rail
	if sr.Done() {
		t.Fatal("send completed with both packets in flight")
	}
	dying.inject(&core.Packet{Hdr: core.Header{Kind: core.Kind(99)}}) // fail rail 0
	if sr.Done() {
		t.Fatal("request completed while a packet was still in flight on the surviving rail")
	}
	busy.completeOne()
	if sr.Done() {
		t.Fatal("request completed while the failed rail's driver may still read its packet")
	}
	dying.completeOne()
	if !sr.Done() || sr.Err() == nil {
		t.Fatal("request did not complete with an error once the last in-flight packet drained")
	}
}

// TestRailFailureAbortsRendezvousAndToleratesLateCTS: when a rail dies
// with a rendezvous in flight, the surviving rail carries an abort to
// the peer, and the peer's (legitimate) late CTS is dropped rather than
// read as corruption.
func TestRailFailureAbortsRendezvousAndToleratesLateCTS(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.NewFIFO(0)})
	g := eng.NewGate("peer")
	hold := &holdDrv{}
	survivor := &injectorDrv{}
	g.AddRail(hold) // rail 0: FIFO's pinned rail; RTS will be stuck here
	g.AddRail(survivor)
	sr := g.Isend(1, fill(64<<10, 5)) // above EagerMax: rendezvous path
	if sr.Done() {
		t.Fatal("rendezvous send completed with its RTS stuck in flight")
	}
	hold.inject(&core.Packet{Hdr: core.Header{Kind: core.Kind(99)}}) // fail rail 0
	hold.completeOne()                                               // the late completion of the stuck RTS
	if !sr.Done() || sr.Err() == nil {
		t.Fatal("send not failed after its rail died")
	}
	// The surviving rail must have carried the abort to the peer.
	survivor.mu.Lock()
	var abort *core.Header
	for i := range survivor.sent {
		if survivor.sent[i].Kind == core.KAbort {
			abort = &survivor.sent[i]
		}
	}
	survivor.mu.Unlock()
	if abort == nil || abort.Tag != 1 {
		t.Fatalf("no abort sent on the surviving rail (sent: %v)", survivor.sent)
	}
	// A late CTS for the purged rendezvous is legitimate traffic: it
	// must be dropped, not kill the healthy rail.
	survivor.inject(&core.Packet{Hdr: core.Header{Kind: core.KCTS, RdvID: 1}})
	if g.Rails()[1].Down() {
		t.Fatal("late CTS for an aborted rendezvous killed the surviving rail")
	}
}

// TestEarlyReplayStopsWhenRequestFails: buffered unexpected records are
// replayed when the receive is posted; once one of them error-completes
// the request, the rest must not be replayed — in particular no
// rendezvous sink may be registered against the completed request, or a
// later chunk would write into buffers the application reclaimed.
func TestEarlyReplayStopsWhenRequestFails(t *testing.T) {
	_, g, drv := injectorGate(t)
	// Buffered before any receive is posted: a poisoned eager record
	// (out-of-range offset) and an RTS for the same message.
	bad := core.Header{
		Kind: core.KData, Tag: 1, MsgID: 0, MsgSegs: 2,
		MsgLen: 16, SegLen: 8, MsgOff: 1 << 40, PayLen: 8,
	}
	drv.inject(&core.Packet{Hdr: bad, Payload: make([]byte, 8)})
	rts := core.Header{
		Kind: core.KRTS, Tag: 1, MsgID: 0, MsgSegs: 2,
		MsgLen: 16, SegLen: 8, MsgOff: 8, RdvID: 11,
	}
	drv.inject(&core.Packet{Hdr: rts})
	buf := make([]byte, 16)
	rr := g.Irecv(1, buf)
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("poisoned early record did not fail the receive")
	}
	// A chunk for the replayed RTS's rendezvous must find no sink: the
	// application owns buf again.
	ch := core.Header{Kind: core.KChunk, RdvID: 11, PayLen: 4}
	drv.inject(&core.Packet{Hdr: ch, Payload: []byte("XXXX")})
	if bytes.Contains(buf, []byte("XXXX")) {
		t.Fatal("late chunk wrote into a reclaimed receive buffer")
	}
}

// TestStragglerChunkAfterAbortTolerated: after a KAbort tears down a
// rendezvous sink, chunks still in flight on surviving rails are
// legitimate stragglers — they must be dropped, not kill the rail.
func TestStragglerChunkAfterAbortTolerated(t *testing.T) {
	_, g, drv := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 64<<10))
	rts := core.Header{
		Kind: core.KRTS, Tag: 1, MsgID: 0, MsgSegs: 1,
		MsgLen: 64 << 10, SegLen: 64 << 10, RdvID: 5,
	}
	drv.inject(&core.Packet{Hdr: rts})
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.KAbort, Tag: 1, MsgID: 0}})
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("abort did not fail the accepted rendezvous receive")
	}
	ch := core.Header{Kind: core.KChunk, RdvID: 5, PayLen: 16}
	drv.inject(&core.Packet{Hdr: ch, Payload: make([]byte, 16)})
	if g.Rails()[0].Down() {
		t.Fatal("straggler chunk for an aborted rendezvous killed the rail")
	}
	// An id no RTS ever announced is still corruption.
	drv.inject(&core.Packet{Hdr: core.Header{Kind: core.KChunk, RdvID: 99, PayLen: 1}, Payload: []byte{0}})
	if !g.Rails()[0].Down() {
		t.Fatal("chunk for a never-announced rendezvous did not fail the rail")
	}
}

// TestMarkDownLastRailFailsGate: administratively retiring the last rail
// kills the gate — outstanding and future requests fail instead of
// hanging.
func TestMarkDownLastRailFailsGate(t *testing.T) {
	_, g, _ := injectorGate(t)
	rr := g.Irecv(1, make([]byte, 8))
	g.Rails()[0].MarkDown()
	if !rr.Done() || rr.Err() == nil {
		t.Fatal("posted receive survived losing the last rail to MarkDown")
	}
	sr := g.Isend(1, []byte("x"))
	if !sr.Done() || sr.Err() == nil {
		t.Fatal("send after MarkDown of last rail did not fail")
	}
}

// slowDrv completes sends synchronously after a fixed stall, holding the
// owning gate's progress domain for the duration.
type slowDrv struct {
	injectorDrv
	delay time.Duration
}

func (d *slowDrv) Send(p *core.Packet) error {
	time.Sleep(d.delay)
	return d.injectorDrv.Send(p)
}

// TestGateIsolationUnderLoad is the direct regression against the seed's
// single engine lock: while one gate's domain is stuck inside a slow
// driver send, traffic on a sibling gate must proceed immediately. Under
// a global engine lock the second send would wait out the stall.
func TestGateIsolationUnderLoad(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	slow := eng.NewGate("slow-peer")
	stall := time.Second
	slow.AddRail(&slowDrv{delay: stall})
	fast := eng.NewGate("fast-peer")
	fast.AddRail(&injectorDrv{})

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		eng.Wait(slow.Isend(1, fill(64, 1))) // holds slow's domain for stall
	}()
	time.Sleep(20 * time.Millisecond) // let the slow send enter the driver
	t0 := time.Now()
	if err := eng.Wait(fast.Isend(1, fill(64, 2))); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > stall/2 {
		t.Fatalf("send on an idle gate took %v while a sibling gate was stalled — gates are serialized", d)
	}
	<-slowDone
}

// TestConcurrentGatesStress exercises the sharded progress engine: one
// hub engine with many gates, several concurrent senders and waiters per
// gate, mixed eager and rendezvous sizes, verified end to end. Run with
// -race to validate the per-gate domain model.
func TestConcurrentGatesStress(t *testing.T) {
	const (
		gates   = 8
		senders = 4 // goroutines (tags) per gate
		msgs    = 12
	)
	sizes := []int{0, 1, 700, 4 << 10, 33 << 10, 64 << 10} // spans eager and rdv
	hub := core.New(core.Config{Strategy: strategy.Must("balance")})

	type side struct {
		hubGate *core.Gate
		peerEng *core.Engine
		peer    *core.Gate
	}
	var ss []side
	for i := 0; i < gates; i++ {
		pe := core.New(core.Config{Strategy: strategy.Must("balance")})
		hg := hub.NewGate(fmt.Sprintf("peer%d", i))
		pg := pe.NewGate("hub")
		for r := 0; r < 2; r++ {
			a, b := memdrv.Pair(fmt.Sprintf("g%d-r%d", i, r), memdrv.DefaultProfile())
			hg.AddRail(a)
			pg.AddRail(b)
		}
		ss = append(ss, side{hubGate: hg, peerEng: pe, peer: pg})
	}

	payload := func(gate, sender, msg, size int) []byte {
		return fill(size, byte(gate*31+sender*7+msg))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, gates*senders*2)
	for gi := 0; gi < gates; gi++ {
		gi := gi
		for si := 0; si < senders; si++ {
			si := si
			tag := uint32(si)
			// Receiver: posts receives in order and verifies payloads.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := 0; m < msgs; m++ {
					size := sizes[(gi+si+m)%len(sizes)]
					buf := make([]byte, size)
					rr := ss[gi].peer.Irecv(tag, buf)
					if err := ss[gi].peerEng.Wait(rr); err != nil {
						errCh <- fmt.Errorf("gate %d tag %d msg %d recv: %w", gi, si, m, err)
						return
					}
					if !bytes.Equal(buf, payload(gi, si, m, size)) {
						errCh <- fmt.Errorf("gate %d tag %d msg %d corrupted", gi, si, m)
						return
					}
				}
			}()
			// Sender.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := 0; m < msgs; m++ {
					size := sizes[(gi+si+m)%len(sizes)]
					sr := ss[gi].hubGate.Isend(tag, payload(gi, si, m, size))
					if err := hub.Wait(sr); err != nil {
						errCh <- fmt.Errorf("gate %d tag %d msg %d send: %w", gi, si, m, err)
						return
					}
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run deadlocked")
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestConcurrentSendersOneGate hammers a single gate from many goroutines:
// the per-gate domain must serialize them without losing or corrupting
// messages.
func TestConcurrentSendersOneGate(t *testing.T) {
	d := newDuo(t, 2, balanced)
	const senders = 8
	const msgs = 40
	var wg sync.WaitGroup
	errCh := make(chan error, senders*2)
	for s := 0; s < senders; s++ {
		tag := uint32(s)
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 0; m < msgs; m++ {
				buf := make([]byte, 512)
				rr := d.gateBA.Irecv(tag, buf)
				if err := d.engB.Wait(rr); err != nil {
					errCh <- fmt.Errorf("tag %d msg %d recv: %w", s, m, err)
					return
				}
				if !bytes.Equal(buf, fill(512, byte(s^m))) {
					errCh <- fmt.Errorf("tag %d msg %d corrupted", s, m)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 0; m < msgs; m++ {
				if err := d.engA.Wait(d.gateAB.Isend(tag, fill(512, byte(s^m)))); err != nil {
					errCh <- fmt.Errorf("tag %d msg %d send: %w", s, m, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
