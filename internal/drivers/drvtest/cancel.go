package drvtest

// Cancel-semantics conformance: every driver must carry the engine's
// request-cancellation protocol faithfully. The contract, stated over a
// pair of single-rail engines wired through the driver under test:
//
//   - cancel before post: a send whose work still sits in the backlog
//     (an ungranted rendezvous body) completes promptly with the cancel
//     error, its queued units are freed, and the peer's matching receive
//     fails with core.ErrMsgAborted instead of hanging;
//   - cancel mid-flight: a send cancelled while packets are moving
//     reaches a terminal state in bounded time on both ends — the
//     sender's request completes (with the cancel error, or nil if it
//     had already won the race), and the peer's receive either completes
//     intact or fails with a non-nil error; nothing hangs or corrupts;
//   - cancel after completion: a no-op — the request stays successfully
//     completed and later traffic on the gate is unaffected.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// engPair wires a harness pair into two single-rail engines, one gate
// each, so requests can be exercised end to end over the driver under
// test.
type engPair struct {
	p      Pair
	gA, gB *core.Gate
}

func newEngPair(t *testing.T, h Harness) *engPair {
	t.Helper()
	p := setup(t, h)
	engA := core.New(core.Config{Strategy: strategy.NewFIFO(0)})
	engB := core.New(core.Config{Strategy: strategy.NewFIFO(0)})
	ep := &engPair{p: p, gA: engA.NewGate("B"), gB: engB.NewGate("A")}
	ep.gA.AddRail(p.A)
	ep.gB.AddRail(p.B)
	return ep
}

// settle runs the transport's pump until cond holds or a real-time
// deadline passes. Drivers may deliver engine events on their own
// goroutines, so cond reads engine state only through synchronized
// accessors (request Done, rail Busy, backlogEmpty).
func (ep *engPair) settle(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if ep.p.Pump != nil {
			ep.p.Pump()
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// backlogEmpty reads whether g's backlog is empty from inside the gate's
// progress domain, where the engine mutates it.
func backlogEmpty(g *core.Gate) bool {
	empty := make(chan bool, 1)
	g.Exec(func(o core.Ops) { empty <- o.Gate().Backlog().Empty() })
	return <-empty
}

// rdvSize returns a payload size above the pair's eager thresholds, so a
// send goes through the rendezvous protocol and has a queued body phase.
func rdvSize(p Pair) int {
	n := 64 << 10
	for _, d := range []core.Driver{p.A, p.B} {
		if em := d.Profile().EagerMax; em >= n {
			n = em + 1
		}
	}
	return n
}

// runCancel executes the cancel-semantics section against the harness.
func runCancel(t *testing.T, h Harness) {
	t.Run("CancelQueuedSend", func(t *testing.T) {
		ep := newEngPair(t, h)
		body := make([]byte, rdvSize(ep.p))
		for i := range body {
			body[i] = byte(i * 5)
		}
		sr := ep.gA.Isend(3, body)
		// Let the RTS drain; with no receive posted at B the body stays
		// queued, ungranted — the "still in the backlog" state.
		ep.settle(t, func() bool { return !ep.gA.Rails()[0].Busy() }, "RTS drained")
		if sr.Done() {
			t.Fatal("ungranted rendezvous send completed on its own")
		}
		cause := errors.New("test: deliberate cancel")
		sr.Cancel(cause)
		ep.settle(t, func() bool { return sr.Done() }, "cancelled send to complete")
		if err := sr.Err(); !errors.Is(err, cause) {
			t.Fatalf("cancelled send completed with %v, want %v", err, cause)
		}
		ep.settle(t, func() bool { return backlogEmpty(ep.gA) }, "backlog to drain")
		// The peer must learn of the abandonment: its matching receive
		// fails instead of waiting forever for a message nobody sends.
		rr := ep.gB.Irecv(3, make([]byte, len(body)))
		ep.settle(t, func() bool { return rr.Done() }, "peer receive to abort")
		if err := rr.Err(); !errors.Is(err, core.ErrMsgAborted) {
			t.Fatalf("peer receive completed with %v, want ErrMsgAborted", err)
		}
	})

	t.Run("CancelPostedRecv", func(t *testing.T) {
		ep := newEngPair(t, h)
		rr := ep.gB.Irecv(4, make([]byte, 64))
		cause := errors.New("test: recv cancel")
		rr.Cancel(cause)
		ep.settle(t, func() bool { return rr.Done() }, "cancelled receive to complete")
		if err := rr.Err(); !errors.Is(err, cause) {
			t.Fatalf("cancelled receive completed with %v, want %v", err, cause)
		}
		// The cancelled receive claimed message 0; the sender's message 0
		// is dropped on arrival and message 1 must match B's next
		// receive — sequencing survives the cancel.
		sr0 := ep.gA.Isend(4, []byte("claimed-by-cancelled"))
		sr1 := ep.gA.Isend(4, []byte("second-message"))
		buf := make([]byte, 64)
		rr1 := ep.gB.Irecv(4, buf)
		ep.settle(t, func() bool { return sr0.Done() && sr1.Done() && rr1.Done() }, "follow-up exchange")
		if err := rr1.Err(); err != nil {
			t.Fatalf("follow-up receive failed: %v", err)
		}
		if got := buf[:rr1.Len()]; !bytes.Equal(got, []byte("second-message")) {
			t.Fatalf("follow-up receive got %q, want the second message", got)
		}
	})

	t.Run("CancelRecvThenRendezvousSend", func(t *testing.T) {
		ep := newEngPair(t, h)
		rr := ep.gB.Irecv(7, make([]byte, rdvSize(ep.p)))
		rr.Cancel(nil)
		ep.settle(t, func() bool { return rr.Done() }, "recv cancel")
		// A rendezvous for the claimed message must fail promptly with
		// ErrPeerRecvGone — the recv-abort control path over this
		// driver — not park forever waiting for a CTS.
		sr := ep.gA.Isend(7, make([]byte, rdvSize(ep.p)))
		ep.settle(t, func() bool { return sr.Done() }, "sender to learn the receive is gone")
		if err := sr.Err(); !errors.Is(err, core.ErrPeerRecvGone) {
			t.Fatalf("rendezvous send to a cancelled receive: %v, want ErrPeerRecvGone", err)
		}
	})

	t.Run("CancelMidFlight", func(t *testing.T) {
		ep := newEngPair(t, h)
		body := make([]byte, rdvSize(ep.p))
		for i := range body {
			body[i] = byte(i * 7)
		}
		recv := make([]byte, len(body))
		rr := ep.gB.Irecv(5, recv)
		sr := ep.gA.Isend(5, body)
		// Cancel immediately, racing the transfer wherever it is —
		// RTS posted, chunks moving, or already finished.
		sr.Cancel(nil)
		ep.settle(t, func() bool { return sr.Done() && rr.Done() }, "both ends to reach a terminal state")
		switch err := sr.Err(); {
		case err == nil:
			// The transfer won the race; the peer must have it intact.
			if rr.Err() != nil {
				t.Fatalf("send completed clean but receive failed: %v", rr.Err())
			}
			if !bytes.Equal(recv, body) {
				t.Fatal("completed transfer corrupted")
			}
		case errors.Is(err, core.ErrCanceled):
			// Abandoned; the peer sees either the full message or an
			// abort — never a hang, never silent truncation.
			if rr.Err() == nil && !bytes.Equal(recv, body) {
				t.Fatal("receive completed clean without the full payload")
			}
		default:
			t.Fatalf("cancelled send completed with unexpected error %v", err)
		}
	})

	t.Run("CancelAfterCompletionNoop", func(t *testing.T) {
		ep := newEngPair(t, h)
		buf := make([]byte, 16)
		rr := ep.gB.Irecv(6, buf)
		sr := ep.gA.Isend(6, []byte("stays delivered!"))
		ep.settle(t, func() bool { return sr.Done() && rr.Done() }, "exchange to complete")
		sr.Cancel(errors.New("test: late send cancel"))
		rr.Cancel(errors.New("test: late recv cancel"))
		if err := sr.Err(); err != nil {
			t.Fatalf("late Cancel rewrote send outcome: %v", err)
		}
		if err := rr.Err(); err != nil {
			t.Fatalf("late Cancel rewrote receive outcome: %v", err)
		}
		if !bytes.Equal(buf, []byte("stays delivered!")) {
			t.Fatal("late Cancel corrupted delivered data")
		}
		// The gate still works.
		buf2 := make([]byte, 16)
		rr2 := ep.gB.Irecv(6, buf2)
		sr2 := ep.gA.Isend(6, []byte("and still works!"))
		ep.settle(t, func() bool { return sr2.Done() && rr2.Done() }, "post-cancel exchange")
		if rr2.Err() != nil || !bytes.Equal(buf2, []byte("and still works!")) {
			t.Fatalf("gate unusable after no-op cancels: %v", rr2.Err())
		}
	})
}
