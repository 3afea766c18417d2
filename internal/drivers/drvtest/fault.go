package drvtest

// Fault-injection conformance: a rail failure injected while engines are
// actively driving traffic must fail loudly, on both ends, in bounded
// time. The contract, stated over a pair of single-rail engines wired
// through the driver under test:
//
//   - flap during an eager stream: every streamed request reaches a
//     terminal state — completed intact before the fault, or failed with
//     an error wrapping core.ErrRailDown / core.ErrMsgAborted after it;
//     no request parks forever;
//   - flap during a rendezvous: the large transfer either completes with
//     the payload intact on the peer or both ends fail loudly with a
//     rail error; never a hang, never silent truncation;
//   - flap racing a cancel: the two failure paths compose — the request
//     completes with the cancel error or the rail error, whichever won,
//     and the peer's receive is aborted rather than orphaned.
//
// The suite does not check arena leases here: a severed link abandons
// in-flight wire buffers to the GC by design (see Recorder.Arrive and
// the engine's railFailure path).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"newmad/internal/core"
)

// probeTag marks the throwaway keep-alive sends settleFault posts; it
// must not collide with any tag the fault subtests track.
const probeTag = 1000

// flapPair returns the harness's mid-traffic fault injector, falling
// back to Break, and skips the calling test when the transport has
// neither (its links cannot fail).
func flapPair(t *testing.T, p Pair) func() {
	t.Helper()
	if p.Flap != nil {
		return p.Flap
	}
	if p.Break != nil {
		return p.Break
	}
	t.Skip("transport has no fault-injection mode")
	return nil
}

// settleFault pumps like settle while keeping a small probe send posted
// on each gate: a transport whose injected fault is only observed by the
// NEXT posted send (one-sided injection) is still noticed by both
// engines after the tracked traffic has gone quiet. Probes are
// throwaway — on a healthy gate they deliver as unexpected messages, on
// a dying one they fail with the rail error, which is the point.
func (ep *engPair) settleFault(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var pa, pb *core.SendReq
	for i := 0; !cond(); i++ {
		if ep.p.Pump != nil {
			ep.p.Pump()
		}
		if i%16 == 0 {
			if pa == nil || pa.Done() {
				pa = ep.gA.Isend(probeTag, []byte("fault probe"))
			}
			if pb == nil || pb.Done() {
				pb = ep.gB.Isend(probeTag, []byte("fault probe"))
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// wantFaultErr accepts a post-fault request outcome: success, or a loud
// failure wrapping one of the allowed sentinels. Anything else — above
// all a hang, which the settle deadline converts into a test failure
// before this runs — breaks the contract.
func wantFaultErr(t *testing.T, what string, err error, allowed ...error) {
	t.Helper()
	if err == nil {
		return
	}
	for _, a := range allowed {
		if errors.Is(err, a) {
			return
		}
	}
	t.Fatalf("%s completed with unexpected error %v; want nil or one of %v", what, err, allowed)
}

// patterned returns a deterministic payload of n bytes keyed by k.
func patterned(n int, k byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*k + k
	}
	return b
}

// runFault executes the fault-injection section against the harness.
func runFault(t *testing.T, h Harness) {
	t.Run("FlapDuringEagerStream", func(t *testing.T) {
		ep := newEngPair(t, h)
		flap := flapPair(t, ep.p)
		const n = 12
		body := func(tag, i int) []byte {
			return bytes.Repeat([]byte{byte(tag<<4) + byte(i) + 1}, 512)
		}
		// Pre-post every receive; the streams (A→B on tag 1, B→A on
		// tag 2) then run half before the fault and half after it.
		var srAB, srBA []*core.SendReq
		var rrAB, rrBA []*core.RecvReq
		bufAB := make([][]byte, n)
		bufBA := make([][]byte, n)
		for i := 0; i < n; i++ {
			bufAB[i] = make([]byte, 512)
			bufBA[i] = make([]byte, 512)
			rrAB = append(rrAB, ep.gB.Irecv(1, bufAB[i]))
			rrBA = append(rrBA, ep.gA.Irecv(2, bufBA[i]))
		}
		for i := 0; i < n/2; i++ {
			srAB = append(srAB, ep.gA.Isend(1, body(1, i)))
			srBA = append(srBA, ep.gB.Isend(2, body(2, i)))
		}
		ep.settle(t, func() bool {
			return srAB[n/2-1].Done() && srBA[n/2-1].Done()
		}, "first half of the streams")
		flap()
		for i := n / 2; i < n; i++ {
			srAB = append(srAB, ep.gA.Isend(1, body(1, i)))
			srBA = append(srBA, ep.gB.Isend(2, body(2, i)))
		}
		ep.settleFault(t, func() bool {
			for _, r := range srAB {
				if !r.Done() {
					return false
				}
			}
			for _, r := range srBA {
				if !r.Done() {
					return false
				}
			}
			for _, r := range rrAB {
				if !r.Done() {
					return false
				}
			}
			for _, r := range rrBA {
				if !r.Done() {
					return false
				}
			}
			return true
		}, "every streamed request to reach a terminal state")
		for i := 0; i < n; i++ {
			wantFaultErr(t, fmt.Sprintf("A→B send %d", i), srAB[i].Err(), core.ErrRailDown, core.ErrMsgAborted)
			wantFaultErr(t, fmt.Sprintf("B→A send %d", i), srBA[i].Err(), core.ErrRailDown, core.ErrMsgAborted)
			wantFaultErr(t, fmt.Sprintf("A→B recv %d", i), rrAB[i].Err(), core.ErrRailDown, core.ErrMsgAborted)
			wantFaultErr(t, fmt.Sprintf("B→A recv %d", i), rrBA[i].Err(), core.ErrRailDown, core.ErrMsgAborted)
			if rrAB[i].Err() == nil && !bytes.Equal(bufAB[i], body(1, i)) {
				t.Fatalf("A→B recv %d completed clean with corrupt payload", i)
			}
			if rrBA[i].Err() == nil && !bytes.Equal(bufBA[i], body(2, i)) {
				t.Fatalf("B→A recv %d completed clean with corrupt payload", i)
			}
		}
	})

	t.Run("FlapDuringRendezvous", func(t *testing.T) {
		ep := newEngPair(t, h)
		flap := flapPair(t, ep.p)
		size := rdvSize(ep.p)
		bodyA := patterned(size, 3)
		bodyB := patterned(size, 5)
		recvA := make([]byte, size)
		recvB := make([]byte, size)
		rrB := ep.gB.Irecv(8, recvB)
		rrA := ep.gA.Irecv(9, recvA)
		srA := ep.gA.Isend(8, bodyA)
		srB := ep.gB.Isend(9, bodyB)
		// Fault races the transfers wherever they are: RTS posted, CTS
		// returning, body chunks moving.
		flap()
		ep.settleFault(t, func() bool {
			return srA.Done() && srB.Done() && rrA.Done() && rrB.Done()
		}, "rendezvous transfers to reach a terminal state")
		wantFaultErr(t, "A→B rendezvous send", srA.Err(), core.ErrRailDown, core.ErrMsgAborted, core.ErrPeerRecvGone)
		wantFaultErr(t, "B→A rendezvous send", srB.Err(), core.ErrRailDown, core.ErrMsgAborted, core.ErrPeerRecvGone)
		wantFaultErr(t, "A→B rendezvous recv", rrB.Err(), core.ErrRailDown, core.ErrMsgAborted)
		wantFaultErr(t, "B→A rendezvous recv", rrA.Err(), core.ErrRailDown, core.ErrMsgAborted)
		if rrB.Err() == nil && !bytes.Equal(recvB, bodyA) {
			t.Fatal("A→B rendezvous completed clean with corrupt payload")
		}
		if rrA.Err() == nil && !bytes.Equal(recvA, bodyB) {
			t.Fatal("B→A rendezvous completed clean with corrupt payload")
		}
	})

	t.Run("FlapDuringCancel", func(t *testing.T) {
		ep := newEngPair(t, h)
		flap := flapPair(t, ep.p)
		size := rdvSize(ep.p)
		body := patterned(size, 7)
		recv := make([]byte, size)
		rr := ep.gB.Irecv(11, recv)
		sr := ep.gA.Isend(11, body)
		// The two failure paths race: the rail dies and the request is
		// cancelled, in quick succession. Whichever wins, both ends must
		// reach a terminal state.
		flap()
		sr.Cancel(nil)
		ep.settleFault(t, func() bool {
			return sr.Done() && rr.Done()
		}, "cancelled transfer under fault to reach a terminal state")
		wantFaultErr(t, "cancelled send under fault", sr.Err(),
			core.ErrCanceled, core.ErrRailDown, core.ErrMsgAborted, core.ErrPeerRecvGone)
		wantFaultErr(t, "peer recv under fault+cancel", rr.Err(),
			core.ErrRailDown, core.ErrMsgAborted)
		if rr.Err() == nil && !bytes.Equal(recv, body) {
			t.Fatal("receive completed clean without the full payload")
		}
	})
}
