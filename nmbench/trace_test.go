package main

import (
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/strategy"
)

// plainStrategy implements only core.Strategy.
type plainStrategy struct{ submits, schedules int }

func (s *plainStrategy) Name() string                                    { return "plain" }
func (s *plainStrategy) Submit(*core.Backlog, *core.Unit)                { s.submits++ }
func (s *plainStrategy) Schedule(*core.Backlog, *core.Rail) *core.Packet { s.schedules++; return nil }

// discardingStrategy also implements core.Discarder.
type discardingStrategy struct {
	plainStrategy
	discards int
}

func (s *discardingStrategy) Discard(*core.Backlog, *core.Unit) { s.discards++ }

func TestStrategyWrapperForwardsDiscarder(t *testing.T) {
	tr := newTracer()
	inner := &discardingStrategy{}
	w := wrapStrategy(inner, tr)
	d, ok := w.(core.Discarder)
	if !ok {
		t.Fatal("wrapping a Discarder lost core.Discarder: abandoned bodies would leak in the traced run")
	}
	d.Discard(nil, nil)
	if inner.discards != 1 {
		t.Fatalf("Discard reached the inner strategy %d times, want 1", inner.discards)
	}
	if _, ok := wrapStrategy(&plainStrategy{}, tr).(core.Discarder); ok {
		t.Fatal("wrapping a plain strategy added core.Discarder")
	}
	if w.Name() != "plain" {
		t.Fatalf("Name = %q, want the inner strategy's", w.Name())
	}
}

func TestStrategyWrapperTimesOnlyWhenOn(t *testing.T) {
	tr := newTracer()
	inner := &plainStrategy{}
	w := wrapStrategy(inner, tr)
	w.Submit(nil, nil)
	w.Schedule(nil, nil)
	if tr.submit.n.Load() != 0 || tr.schedule.n.Load() != 0 {
		t.Fatal("tracer off but calls were timed")
	}
	tr.enable()
	w.Submit(nil, nil)
	w.Schedule(nil, nil)
	tr.disable()
	if inner.submits != 2 || inner.schedules != 2 {
		t.Fatalf("inner saw %d submits, %d schedules; want 2, 2", inner.submits, inner.schedules)
	}
	if tr.submit.n.Load() != 1 || tr.schedule.n.Load() != 1 || tr.scheduleHits.Load() != 0 {
		t.Fatal("traced calls not counted once each (a nil packet is not a hit)")
	}
}

// plainEvents implements only core.Events.
type plainEvents struct{ arrivals int }

func (e *plainEvents) SendComplete(int)                    {}
func (e *plainEvents) SendFailed(int, *core.Packet, error) {}
func (e *plainEvents) Arrive(int, *core.Packet)            { e.arrivals++ }
func (e *plainEvents) RailDown(int, error)                 {}

// batchEvents also implements core.BatchEvents, as the engine's sink does.
type batchEvents struct {
	plainEvents
	batches []*core.EventBatch
}

func (e *batchEvents) DeliverBatch(_ int, b *core.EventBatch) { e.batches = append(e.batches, b) }

// bindDriver records the sink it is bound to.
type bindDriver struct {
	core.Driver
	ev core.Events
}

func (d *bindDriver) Bind(_ int, ev core.Events) { d.ev = ev }

func TestDriverWrapperForwardsBatchEvents(t *testing.T) {
	tr := newTracer()
	inner := &bindDriver{}
	d := wrapDriver(inner, tr, 1, "tcpdrv")
	sink := &batchEvents{}
	d.Bind(0, sink)
	be, ok := inner.ev.(core.BatchEvents)
	if !ok {
		t.Fatal("driver bound to a batching sink sees no core.BatchEvents: it would fall back to per-event delivery")
	}
	tr.enable()
	b := core.GetEventBatch()
	be.DeliverBatch(0, b)
	inner.ev.Arrive(0, nil)
	tr.disable()
	if len(sink.batches) != 1 || sink.batches[0] != b || sink.arrivals != 1 {
		t.Fatal("batch or arrival not forwarded unchanged")
	}
	if tr.lastDeliver[1].Load() == 0 {
		t.Fatal("delivery not stamped on side 1")
	}

	plain := &bindDriver{}
	wrapDriver(plain, tr, 0, "shmdrv").Bind(0, &plainEvents{})
	if _, ok := plain.ev.(core.BatchEvents); ok {
		t.Fatal("wrapping a plain sink added core.BatchEvents")
	}
}

// TestTracedGateRunsTheSameProgram drives the wrappers on a real engine
// pair over a loopback tcp rail: tcpdrv is bound to a batching sink and
// the message arrives intact.
func TestTracedGateRunsTheSameProgram(t *testing.T) {
	tr := newTracer()
	d, err := wiredDuo(bulkRails()[:1], func() core.Strategy { return strategy.NewFIFO(0) }, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if _, ok := tr.rails[0][0].Driver.(*tcpdrv.Driver); !ok {
		t.Fatal("rail 0 is not the tcpdrv driver")
	}
	tr.enable()
	msg := []byte("traced but unchanged")
	buf := make([]byte, 64)
	rr := d.gb.Irecv(1, buf)
	sr := d.ga.Isend(1, msg)
	if err := d.engA.Wait(sr); err != nil {
		t.Fatal(err)
	}
	if err := d.engB.Wait(rr); err != nil {
		t.Fatal(err)
	}
	tr.disable()
	if string(buf[:rr.Len()]) != string(msg) {
		t.Fatalf("got %q", buf[:rr.Len()])
	}
	if _, ok := tr.rails[1][0].Driver.(*tcpdrv.Driver); !ok {
		t.Fatal("rail 0 of side 1 is not the tcpdrv driver")
	}
	if tr.kinds["tcpdrv"].send.n.Load() == 0 || tr.schedule.n.Load() == 0 {
		t.Fatal("traced sends or schedule calls not counted")
	}
}
