// Package drvtest is a conformance suite for core.Driver implementations.
// Every transmit-layer driver — in-memory, simulated, real sockets —
// must satisfy the same engine-facing contract; this package states that
// contract once, as a shared test table, and each driver's test package
// wires its constructor in.
//
// Contract checked here:
//
//   - send/recv ordering: packets posted on one rail arrive at the peer
//     in posting order, bytes intact, one SendComplete per accepted Send;
//   - aggregates: a packet whose records are a gather list over the
//     application buffers arrives as the contiguous record encoding (see
//     aggregate.go);
//   - event-driven delivery: an arrival surfaces at the peer's sink with
//     no call into the receiving driver — drivers report events as they
//     happen, the engine never pumps them;
//   - RailDown reporting: an asynchronous link failure is reported
//     exactly once (drivers whose links cannot fail asynchronously skip
//     this case);
//   - cancel semantics: request cancellation over the driver behaves per
//     contract — cancel before post frees queued work and aborts the
//     peer, cancel mid-flight reaches bounded-time terminal states on
//     both ends, cancel after completion is a no-op (see cancel.go);
//   - fault semantics: a rail failure injected while engines are driving
//     traffic (Pair.Flap) fails every affected request loudly — errors
//     wrapping core.ErrRailDown or core.ErrMsgAborted — and never leaves
//     a request parked forever (see fault.go);
//   - close semantics: Close is idempotent and Send after Close returns
//     an error rather than panicking or completing.
package drvtest

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"newmad/internal/core"
)

// Pair is one connected driver pair under test, A's traffic arriving at
// B and vice versa.
type Pair struct {
	A, B core.Driver
	// Pump advances out-of-band progress the drivers depend on (a
	// simulated world's event loop). May be nil. Pump must not call into
	// the drivers: the event-driven delivery case relies on it.
	Pump func()
	// Break severs the link abruptly so that A observes an asynchronous
	// failure (Events.RailDown or Events.SendFailed). Nil when the
	// transport has no such failure mode.
	Break func()
	// Flap injects a mid-traffic rail failure that BOTH sides eventually
	// observe while engines are actively driving requests over the pair:
	// each side either gets an asynchronous report (RailDown) or sees its
	// next posted send fail. Used by the fault-injection section; nil
	// falls back to Break, and the section skips when both are nil.
	Flap func()
}

// Harness adapts one driver package to the suite.
type Harness struct {
	// New builds a fresh connected pair for one subtest. The suite
	// closes both drivers when the subtest ends.
	New func(t *testing.T) Pair
}

// Recorder is a thread-safe core.Events sink.
type Recorder struct {
	mu        sync.Mutex
	arrivals  []*core.Packet
	completes int
	sendFails []error
	railsDown []error
}

// SendComplete implements core.Events.
func (r *Recorder) SendComplete(rail int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.completes++
}

// SendFailed implements core.Events.
func (r *Recorder) SendFailed(rail int, p *core.Packet, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sendFails = append(r.sendFails, err)
}

// Arrive implements core.Events. Ownership of the packet (and the arena
// lease backing its payload) transfers to the sink, exactly as it does
// for the engine: snapshot what we keep, then release.
func (r *Recorder) Arrive(rail int, p *core.Packet) {
	r.mu.Lock()
	cp := &core.Packet{Hdr: p.Hdr, Payload: append([]byte(nil), p.Payload...)}
	r.arrivals = append(r.arrivals, cp)
	r.mu.Unlock()
	p.Release()
}

// RailDown implements core.Events.
func (r *Recorder) RailDown(rail int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.railsDown = append(r.railsDown, err)
}

func (r *Recorder) snapshot() (arrivals int, completes int, fails int, downs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.arrivals), r.completes, len(r.sendFails), len(r.railsDown)
}

func (r *Recorder) arrival(i int) *core.Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arrivals[i]
}

// leakCheck registers the arena-lease invariant for one subtest: every
// buffer the driver pair took from the pool during the subtest must be
// back by the time the drivers are closed. Registered before setup so
// the LIFO cleanup order runs it after Close has joined the drivers'
// goroutines. Not used for subtests that sever links or cancel requests
// mid-flight: those legitimately abandon in-flight leases to the GC.
func leakCheck(t *testing.T) {
	t.Helper()
	before := core.PoolStats()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		after := core.PoolStats()
		if d := after.Live - before.Live; d != 0 {
			t.Errorf("pool leak: %d arena leases still live after subtest (gets %d, puts %d)",
				d, after.Gets-before.Gets, after.Puts-before.Puts)
		}
	})
}

// Run executes the conformance suite against the harness.
func Run(t *testing.T, h Harness) {
	t.Run("ProfileSanity", func(t *testing.T) {
		p := setup(t, h)
		for _, d := range []core.Driver{p.A, p.B} {
			prof := d.Profile()
			if prof.Name == "" {
				t.Errorf("%s: empty profile name", d.Name())
			}
			if prof.Bandwidth <= 0 {
				t.Errorf("%s: profile bandwidth %v", d.Name(), prof.Bandwidth)
			}
			if prof.EagerMax < 0 || prof.PIOMax < 0 {
				t.Errorf("%s: negative profile thresholds", d.Name())
			}
		}
	})

	t.Run("OrderedDelivery", func(t *testing.T) {
		leakCheck(t)
		p := setup(t, h)
		ra, rb := bind(p)
		const n = 16
		var want [][]byte
		for i := 0; i < n; i++ {
			payload := bytes.Repeat([]byte{byte(i + 1)}, 100+i*37)
			want = append(want, payload)
			send(t, p, p.A, pkt(uint32(i%3), uint64(i), payload))
			// One packet in flight per rail, as the engine posts them.
			i := i
			waitEvents(t, p, func() bool {
				_, comp, _, _ := ra.snapshot()
				return comp >= i+1
			}, fmt.Sprintf("completion of packet %d", i))
		}
		waitEvents(t, p, func() bool {
			arr, _, _, _ := rb.snapshot()
			return arr >= n
		}, "16 packets delivered")
		for i := 0; i < n; i++ {
			got := rb.arrival(i)
			if !bytes.Equal(got.Payload, want[i]) {
				t.Fatalf("packet %d: payload corrupt (%d bytes, want %d)", i, len(got.Payload), len(want[i]))
			}
			if got.Hdr.Tag != uint32(i%3) || got.Hdr.MsgID != uint64(i) {
				t.Fatalf("packet %d: out of order: tag %d msg %d", i, got.Hdr.Tag, got.Hdr.MsgID)
			}
		}
		if _, comp, fails, _ := ra.snapshot(); comp != n || fails != 0 {
			t.Fatalf("sender saw %d completions, %d failures; want %d, 0", comp, fails, n)
		}
	})

	t.Run("ZeroAndLargePayload", func(t *testing.T) {
		leakCheck(t)
		p := setup(t, h)
		ra, rb := bind(p)
		big := make([]byte, 256<<10)
		for i := range big {
			big[i] = byte(i * 13)
		}
		send(t, p, p.A, pkt(7, 0, nil))
		waitEvents(t, p, func() bool { _, comp, _, _ := ra.snapshot(); return comp >= 1 }, "zero-length completion")
		send(t, p, p.A, pkt(7, 1, big))
		waitEvents(t, p, func() bool { arr, _, _, _ := rb.snapshot(); return arr >= 2 }, "zero and large packets")
		if got := rb.arrival(0); len(got.Payload) != 0 {
			t.Fatalf("zero-length payload arrived with %d bytes", len(got.Payload))
		}
		if got := rb.arrival(1); !bytes.Equal(got.Payload, big) {
			t.Fatalf("256 KiB payload corrupt")
		}
	})

	t.Run("AggregatedPacket", func(t *testing.T) { runAggregate(t, h) })

	t.Run("EventDrivenArrival", func(t *testing.T) {
		leakCheck(t)
		p := setup(t, h)
		_, rb := bind(p)
		send(t, p, p.A, pkt(1, 0, []byte("unprompted")))
		waitEvents(t, p, func() bool { arr, _, _, _ := rb.snapshot(); return arr >= 1 }, "arrival with no call into the receiving driver")
	})

	t.Run("RailDownReporting", func(t *testing.T) {
		p := setup(t, h)
		if p.Break == nil {
			t.Skip("transport has no asynchronous failure mode")
		}
		ra, _ := bind(p)
		p.Break()
		waitEvents(t, p, func() bool { _, _, fails, downs := ra.snapshot(); return fails+downs >= 1 }, "RailDown/SendFailed after breaking the link")
		// The failure must be reported exactly once: give a driver that
		// would repeat it time to do so.
		time.Sleep(50 * time.Millisecond)
		if p.Pump != nil {
			p.Pump()
		}
		if _, _, fails, downs := ra.snapshot(); fails+downs != 1 {
			t.Fatalf("failure reported %d times, want exactly once", fails+downs)
		}
	})

	t.Run("CancelSemantics", func(t *testing.T) { runCancel(t, h) })

	t.Run("FaultInjection", func(t *testing.T) { runFault(t, h) })

	t.Run("CloseSemantics", func(t *testing.T) {
		leakCheck(t)
		p := setup(t, h)
		bind(p)
		if err := p.A.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := p.A.Close(); err != nil {
			t.Fatalf("second Close not idempotent: %v", err)
		}
		if err := p.A.Send(pkt(1, 0, []byte("after close"))); err == nil {
			t.Fatal("Send after Close accepted")
		}
	})
}

// setup builds a pair and arranges cleanup.
func setup(t *testing.T, h Harness) Pair {
	t.Helper()
	p := h.New(t)
	t.Cleanup(func() {
		_ = p.A.Close()
		_ = p.B.Close()
		if p.Pump != nil {
			p.Pump()
		}
	})
	return p
}

// bind attaches fresh recorders to both drivers.
func bind(p Pair) (ra, rb *Recorder) {
	ra, rb = &Recorder{}, &Recorder{}
	p.A.Bind(0, ra)
	p.B.Bind(0, rb)
	return ra, rb
}

// pkt builds a self-consistent single-segment data packet.
func pkt(tag uint32, msg uint64, payload []byte) *core.Packet {
	return &core.Packet{
		Hdr: core.Header{
			Kind: core.KData, Tag: tag, MsgID: msg, MsgSegs: 1,
			MsgLen: uint64(len(payload)), SegLen: uint64(len(payload)),
		},
		Payload: payload,
	}
}

// send posts one packet, fatally failing the test on refusal.
func send(t *testing.T, p Pair, d core.Driver, pk *core.Packet) {
	t.Helper()
	if err := d.Send(pk); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// waitEvents runs the pump until cond holds or a real-time deadline
// passes. Without a pump, cond must hold (eventually) through the events
// the drivers deliver on their own.
func waitEvents(t *testing.T, p Pair, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if p.Pump != nil {
			p.Pump()
		}
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

var _ core.Events = (*Recorder)(nil)
