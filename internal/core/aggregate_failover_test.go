package core_test

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// awaitLiveDelta polls the arena's live-lease count until it is back to
// base: the last release of a failure path may trail the request
// completion that woke the test by a few instructions.
func awaitLiveDelta(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for core.PoolStats().Live != base {
		if time.Now().After(deadline) {
			t.Fatalf("pool leak: live leases %+d", core.PoolStats().Live-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailoverRequeuesAggregateRecords: an aggregate posted on a rail
// that reports SendFailed is taken apart again — each record goes back
// to the backlog once, still aliasing its application buffer — and the
// records cross the surviving rail, with no lease left behind.
func TestFailoverRequeuesAggregateRecords(t *testing.T) {
	core.SetPoolChecks(true)
	t.Cleanup(func() { core.SetPoolChecks(false) })
	base := core.PoolStats().Live
	d := newDuo(t, 2, func() core.Strategy { return strategy.Must("aggrail") })
	sizes := []int{0, 16, 300, 1000}
	msgs := make([][]byte, len(sizes))
	recvs := make([][]byte, len(sizes))
	var rrs, srs []core.Request
	for i, n := range sizes {
		msgs[i] = fill(n, byte(i+1))
		recvs[i] = make([]byte, n)
		rrs = append(rrs, d.gateBA.Irecv(2, recvs[i]))
	}
	warmRecv := make([]byte, 8)
	rrs = append(rrs, d.gateBA.Irecv(1, warmRecv))

	// Equal profiles make rail 0 the small-message rail. Keep it busy
	// with one packet so the smalls pile up, then arm its next send —
	// the aggregate of the pile — to fail.
	d.drvsA[0].HoldCompletions()
	srs = append(srs, d.gateAB.Isend(1, fill(8, 9)))
	for i := range msgs {
		srs = append(srs, d.gateAB.Isend(2, msgs[i]))
	}
	if got := d.gateAB.Backlog().SegCount(); got != len(msgs) {
		t.Fatalf("%d segments queued behind the busy rail, want %d", got, len(msgs))
	}
	d.drvsA[0].FailNextSend()
	d.drvsA[0].ReleaseCompletions()
	d.pump(t, append(srs, rrs...)...)

	for i, r := range srs {
		if r.Err() != nil {
			t.Fatalf("send %d failed despite the surviving rail: %v", i, r.Err())
		}
	}
	for i := range msgs {
		if !bytes.Equal(recvs[i], msgs[i]) {
			t.Fatalf("record %d (%d bytes) corrupt after requeue", i, sizes[i])
		}
	}
	if st := d.gateAB.Stats(); st.AggPackets != 2 || st.AggSegments != uint64(2*len(msgs)) {
		t.Fatalf("aggregates posted %d carrying %d records, want 2 carrying %d (failed + resent)", st.AggPackets, st.AggSegments, 2*len(msgs))
	}
	// Each record was resubmitted exactly once: the survivor carried
	// one aggregate holding every record and nothing else.
	want := 0
	for _, n := range sizes {
		want += core.HeaderLen + n
	}
	if pkts, b := d.gateAB.Rails()[1].Stats(); pkts != 1 || b != uint64(want) {
		t.Fatalf("surviving rail sent %d packets, %d bytes; want 1 aggregate of %d bytes", pkts, b, want)
	}
	awaitLiveDelta(t, base)
}

// stallDrv models a socket driver's writer goroutine: Send hands the
// packet over, and the writer reads its bytes — without writing to the
// packet, as tcpdrv's writer — only when the test hands it a token,
// then reports the outcome. Close joins the writer, as tcpdrv's does.
type stallDrv struct {
	injectorDrv
	sendq  chan *core.Packet
	token  chan struct{}
	quit   chan struct{}    // closed when the test ends: stop stalling
	posted chan core.Header // the header of each packet the writer holds
	wrote  chan []byte      // the bytes of each packet the writer read
	read   atomic.Int32     // packets the writer has finished reading

	closeOnce sync.Once
	gone      atomic.Bool
	wg        sync.WaitGroup
}

func newStallDrv() *stallDrv {
	d := &stallDrv{
		sendq:  make(chan *core.Packet, 1),
		token:  make(chan struct{}),
		quit:   make(chan struct{}),
		posted: make(chan core.Header, 4),
		wrote:  make(chan []byte, 4),
	}
	d.wg.Add(1)
	go d.writer()
	return d
}

func (d *stallDrv) Send(p *core.Packet) error {
	if d.gone.Load() {
		return errors.New("stall: closed")
	}
	d.sendq <- p
	return nil
}

func (d *stallDrv) writer() {
	defer d.wg.Done()
	for p := range d.sendq {
		d.posted <- p.Hdr
		select {
		case <-d.token:
		case <-d.quit:
		}
		h := p.Hdr
		buf := make([]byte, core.HeaderLen, p.WireLen())
		core.EncodeHeader(buf, &h)
		for _, b := range p.AppendPayload(nil) {
			buf = append(buf, b...)
		}
		d.read.Add(1)
		d.wrote <- buf
		d.mu.Lock()
		rail, ev := d.rail, d.ev
		d.mu.Unlock()
		if d.gone.Load() {
			ev.SendFailed(rail, p, errors.New("stall: closed"))
		} else {
			ev.SendComplete(rail)
		}
	}
}

func (d *stallDrv) Close() error {
	d.closeOnce.Do(func() {
		d.gone.Store(true)
		close(d.sendq)
	})
	d.wg.Wait()
	d.closed.Store(true)
	return nil
}

// TestRailDownWaitsForOrphanedAggregate: a rail failure reported
// asynchronously while the driver's writer is mid-way through an
// aggregate dooms the aggregate's requests, but none may complete —
// handing its buffer back to the application — until the writer has
// finished reading the records.
func TestRailDownWaitsForOrphanedAggregate(t *testing.T) {
	core.SetPoolChecks(true)
	t.Cleanup(func() { core.SetPoolChecks(false) })
	base := core.PoolStats().Live
	eng := core.New(core.Config{Strategy: strategy.NewAggreg(0)})
	g := eng.NewGate("peer")
	drv := newStallDrv()
	g.AddRail(drv)
	t.Cleanup(func() { eng.Close() })
	t.Cleanup(func() { close(drv.quit) }) // runs first: a failed test must not leave Close waiting on the writer

	warm := g.Isend(1, fill(8, 1))
	if h := within(t, drv.posted); h.Agg != 0 {
		t.Fatalf("first packet is an aggregate of %d", h.Agg)
	}
	msgs := [][]byte{fill(100, 2), fill(200, 3), fill(300, 4)}
	var srs []core.Request
	var early atomic.Int32
	for _, m := range msgs {
		sr := g.Isend(2, m)
		sr.OnComplete(func() {
			if drv.read.Load() < 2 { // the warm-up packet, then the aggregate
				early.Add(1)
			}
		})
		srs = append(srs, sr)
	}
	drv.token <- struct{}{} // the warm-up packet is written...
	within(t, drv.wrote)
	if err := eng.Wait(warm); err != nil {
		t.Fatal(err)
	}
	if h := within(t, drv.posted); int(h.Agg) != len(msgs) { // ...and the aggregate is mid-write
		t.Fatalf("in-flight packet aggregates %d records, want %d", h.Agg, len(msgs))
	}

	drv.mu.Lock()
	rail, ev := drv.rail, drv.ev
	drv.mu.Unlock()
	ev.RailDown(rail, errors.New("reader died"))
	time.Sleep(50 * time.Millisecond)
	for i, r := range srs {
		if r.Done() {
			t.Fatalf("send %d completed while the writer still reads its buffer", i)
		}
	}

	drv.token <- struct{}{}
	wire := within(t, drv.wrote)
	if err := eng.WaitAll(srs...); !errors.Is(err, core.ErrRailDown) {
		t.Fatalf("Wait = %v, want a rail-down error", err)
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d sends completed before the writer finished reading the aggregate", n)
	}
	off := core.HeaderLen
	for i, m := range msgs {
		h, err := core.DecodeHeader(wire[off:])
		if err != nil || int(h.PayLen) != len(m) || !bytes.Equal(wire[off+core.HeaderLen:off+core.HeaderLen+len(m)], m) {
			t.Fatalf("record %d read by the writer is not the application's bytes", i)
		}
		off += core.HeaderLen + len(m)
	}
	awaitLiveDelta(t, base)
}

// within receives from ch, failing the test after 5 s.
func within[T any](t *testing.T, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("stall driver: timed out")
		panic("unreachable")
	}
}

var _ core.Driver = (*stallDrv)(nil)
