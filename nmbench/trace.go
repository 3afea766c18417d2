package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"newmad/internal/core"
)

// The traced run wraps the engine's layers — the strategy, each rail
// driver and the driver→engine event sink — in the types below, and
// installs a Config.Trace hook for the engine's own "sent" and "arrive"
// events. Every wrapper forwards exactly the interfaces its wrapped
// value implements (core.Discarder, core.BatchEvents), so the traced
// program takes the same code paths as the untraced one; with the
// tracer off each wrapper costs one atomic load.

var epoch = time.Now()

// now is a monotonic nanosecond clock shared by every stamp.
func now() int64 { return int64(time.Since(epoch)) }

// meanClock accumulates durations and counts.
type meanClock struct{ sum, n atomic.Int64 }

func (c *meanClock) add(d int64) { c.sum.Add(d); c.n.Add(1) }

func (c *meanClock) mean() float64 { return ratio(float64(c.sum.Load()), float64(c.n.Load())) }

// kindStats aggregates one rail kind (tcpdrv, shmdrv, udpdrv) over both
// directions.
type kindStats struct {
	send     meanClock // time inside Driver.Send
	complete meanClock // Send until the engine handles SendComplete
	busyNS   atomic.Int64
	bytes    atomic.Int64
}

// driverKinds are the rail kinds reported per layer.
var driverKinds = []string{"tcpdrv", "shmdrv", "udpdrv"}

// tracer collects the per-layer timings of one traced run.
type tracer struct {
	on atomic.Bool

	isend, irecv, wait, arriveToDone meanClock
	submit, schedule                 meanClock
	scheduleHits                     atomic.Int64

	kinds map[string]*kindStats
	// rails[side][i] is the wrapper of rail i on side 0 (sender engine)
	// or 1 (receiver engine), in AddRail order.
	rails [2][]*tracedDriver
	// lastDeliver is the time a driver last handed an arrival (or a
	// batch) to the engine on each side; curArrive is the lastDeliver
	// value of the packet the engine is processing right now.
	lastDeliver, curArrive [2]atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{kinds: map[string]*kindStats{}}
	for _, k := range driverKinds {
		t.kinds[k] = &kindStats{}
	}
	return t
}

// enable switches timing on, forgetting sends posted while it was off.
func (t *tracer) enable() {
	for _, side := range t.rails {
		for _, d := range side {
			d.sentAt.Store(0)
		}
	}
	t.on.Store(true)
}

func (t *tracer) disable() { t.on.Store(false) }

// start returns a stamp for stop, or 0 when tracing is off.
func (t *tracer) start() int64 {
	if !t.on.Load() {
		return 0
	}
	return now()
}

// stop adds the time since a non-zero start stamp to c.
func (t *tracer) stop(c *meanClock, t0 int64) {
	if t0 != 0 {
		c.add(now() - t0)
	}
}

// hook is the engine Config.Trace callback for one side.
func (t *tracer) hook(side int) func(core.TraceEvent) {
	return func(ev core.TraceEvent) {
		if !t.on.Load() {
			return
		}
		switch ev.Ev {
		case "sent":
			if ev.Rail < 0 || ev.Rail >= len(t.rails[side]) {
				return
			}
			d := t.rails[side][ev.Rail]
			if at := d.sentAt.Swap(0); at != 0 {
				dt := now() - at
				d.ks.complete.add(dt)
				d.ks.busyNS.Add(dt)
			}
		case "arrive":
			t.curArrive[side].Store(t.lastDeliver[side].Load())
		}
	}
}

// watchRecv arranges for the arrive-to-done span of a receive on side
// to be measured: the completion callback runs inside the engine's
// handling of the message's last packet and captures that packet's
// driver delivery time; finish, called when the waiter returns,
// records the span.
func (t *tracer) watchRecv(side int, req core.Request) (finish func()) {
	if !t.on.Load() {
		return func() {}
	}
	var at atomic.Int64
	req.OnComplete(func() { at.Store(t.curArrive[side].Load() + 1) })
	return func() {
		done := now()
		// complete() closes the completion channel before it runs the
		// callbacks, so the waiter may get here first.
		for i := 0; at.Load() == 0 && i < 1000; i++ {
			runtime.Gosched()
		}
		if a := at.Load() - 1; a > 0 {
			t.arriveToDone.add(done - a)
		}
	}
}

// tracedStrategy times Submit and Schedule.
type tracedStrategy struct {
	core.Strategy
	t *tracer
}

func (s *tracedStrategy) Submit(b *core.Backlog, u *core.Unit) {
	if !s.t.on.Load() {
		s.Strategy.Submit(b, u)
		return
	}
	t0 := now()
	s.Strategy.Submit(b, u)
	s.t.submit.add(now() - t0)
}

func (s *tracedStrategy) Schedule(b *core.Backlog, r *core.Rail) *core.Packet {
	if !s.t.on.Load() {
		return s.Strategy.Schedule(b, r)
	}
	t0 := now()
	p := s.Strategy.Schedule(b, r)
	s.t.schedule.add(now() - t0)
	if p != nil {
		s.t.scheduleHits.Add(1)
	}
	return p
}

// tracedDiscarder is tracedStrategy for strategies that keep per-body
// state: it forwards core.Discarder so abandoned bodies are released.
type tracedDiscarder struct {
	*tracedStrategy
	d core.Discarder
}

func (s tracedDiscarder) Discard(b *core.Backlog, u *core.Unit) { s.d.Discard(b, u) }

// wrapStrategy returns inner timed, implementing core.Discarder exactly
// when inner does.
func wrapStrategy(inner core.Strategy, t *tracer) core.Strategy {
	ts := &tracedStrategy{Strategy: inner, t: t}
	if d, ok := inner.(core.Discarder); ok {
		return tracedDiscarder{ts, d}
	}
	return ts
}

// tracedDriver times Send and stamps the post so the engine's "sent"
// event can close the Send→SendComplete span; its Bind wraps the event
// sink to stamp arrivals.
type tracedDriver struct {
	core.Driver
	t      *tracer
	side   int
	ks     *kindStats
	sentAt atomic.Int64
}

// wrapDriver wraps inner as rail len(t.rails[side]) of side, counted
// under kind.
func wrapDriver(inner core.Driver, t *tracer, side int, kind string) *tracedDriver {
	d := &tracedDriver{Driver: inner, t: t, side: side, ks: t.kinds[kind]}
	t.rails[side] = append(t.rails[side], d)
	return d
}

func (d *tracedDriver) Bind(rail int, ev core.Events) {
	d.Driver.Bind(rail, wrapEvents(ev, d.t, d.side))
}

func (d *tracedDriver) Send(p *core.Packet) error {
	if !d.t.on.Load() {
		return d.Driver.Send(p)
	}
	d.ks.bytes.Add(int64(len(p.Payload)))
	t0 := now()
	d.sentAt.Store(t0)
	err := d.Driver.Send(p)
	d.ks.send.add(now() - t0)
	return err
}

// tracedEvents stamps arrivals on their way into the engine.
type tracedEvents struct {
	core.Events
	t    *tracer
	side int
}

func (e tracedEvents) Arrive(rail int, p *core.Packet) {
	if e.t.on.Load() {
		e.t.lastDeliver[e.side].Store(now())
	}
	e.Events.Arrive(rail, p)
}

// tracedBatchEvents is tracedEvents for sinks that take batches: it
// forwards core.BatchEvents, so batching drivers (tcpdrv, shmdrv,
// relnet) keep delivering one batch per poll instead of falling back to
// per-event delivery.
type tracedBatchEvents struct {
	tracedEvents
	be core.BatchEvents
}

func (e tracedBatchEvents) DeliverBatch(rail int, b *core.EventBatch) {
	if e.t.on.Load() {
		e.t.lastDeliver[e.side].Store(now())
	}
	e.be.DeliverBatch(rail, b)
}

// wrapEvents returns ev stamped, implementing core.BatchEvents exactly
// when ev does.
func wrapEvents(ev core.Events, t *tracer, side int) core.Events {
	te := tracedEvents{Events: ev, t: t, side: side}
	if be, ok := ev.(core.BatchEvents); ok {
		return tracedBatchEvents{te, be}
	}
	return te
}
