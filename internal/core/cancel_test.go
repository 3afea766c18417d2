package core_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// Request cancellation: the API side of the paper's "strategies may
// abandon scheduled work" flexibility. These tests pin the lifecycle
// semantics on in-memory rails; the per-driver contract lives in
// drvtest's cancel section, and the virtual-time variants in bench.

func splitStrat() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }

func TestCancelQueuedSendFreesBacklog(t *testing.T) {
	d := newDuo(t, 1, balanced)
	// Keep the rail busy so the second message stays queued.
	d.drvsA[0].HoldCompletions()
	first := d.gateAB.Isend(1, fill(512, 1))
	queued := d.gateAB.Isend(1, fill(512, 2))
	if queued.Done() {
		t.Fatal("second send completed with the rail held")
	}
	cause := errors.New("test: cancel queued")
	queued.Cancel(cause)
	// Nothing of the cancelled message is in flight, so it completes
	// immediately, and its units are gone from the backlog.
	if !queued.Done() {
		t.Fatal("cancelled queued send did not complete")
	}
	if err := queued.Err(); !errors.Is(err, cause) {
		t.Fatalf("cancelled send err = %v, want %v", err, cause)
	}
	b := d.gateAB.Backlog()
	for i := 0; i < b.SegCount(); i++ {
		if b.Seg(i).Req == queued {
			t.Fatal("cancelled send's unit still queued")
		}
	}
	d.drvsA[0].ReleaseCompletions()
	recv := make([]byte, 512)
	rr := d.gateBA.Irecv(1, recv)
	d.pump(t, first, rr)
	if first.Err() != nil || rr.Err() != nil {
		t.Fatalf("survivor exchange failed: %v %v", first.Err(), rr.Err())
	}
	if !bytes.Equal(recv, fill(512, 1)) {
		t.Fatal("survivor payload corrupted by the cancel")
	}
	// The peer's receive for the cancelled message aborts.
	rr2 := d.gateBA.Irecv(1, make([]byte, 512))
	d.pump(t, rr2)
	if !errors.Is(rr2.Err(), core.ErrMsgAborted) {
		t.Fatalf("peer recv of cancelled message: %v, want ErrMsgAborted", rr2.Err())
	}
}

// TestCancelSendSplitTwoRails is the acceptance shape on in-memory
// rails: a cancelled send of a 2-rail split (rendezvous) transfer frees
// the backlog, completes with the cancel error only after its in-flight
// packets drain, and aborts the peer's receive with a non-nil error.
func TestCancelSendSplitTwoRails(t *testing.T) {
	d := newDuo(t, 2, splitStrat)
	const size = 1 << 20 // past EagerMax: rendezvous, stripped across rails
	body := fill(size, 3)
	recv := make([]byte, size)
	rr := d.gateBA.Irecv(4, recv)
	// Hold both rails before submitting: the RTS stays in flight, so the
	// cancel lands while the request genuinely has a packet outstanding.
	d.drvsA[0].HoldCompletions()
	d.drvsA[1].HoldCompletions()
	sr := d.gateAB.Isend(4, body)
	if sr.Done() {
		t.Fatal("rendezvous send completed with rails held")
	}
	sr.Cancel(nil)
	if sr.Done() {
		t.Fatal("cancelled send completed while its packet was still in flight")
	}
	d.drvsA[0].ReleaseCompletions()
	d.drvsA[1].ReleaseCompletions()
	d.pump(t, sr, rr)
	if err := sr.Err(); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("cancelled split send err = %v, want ErrCanceled", err)
	}
	if err := rr.Err(); !errors.Is(err, core.ErrMsgAborted) {
		t.Fatalf("peer recv err = %v, want ErrMsgAborted", err)
	}
	if !d.gateAB.Backlog().Empty() {
		t.Fatal("backlog not freed after cancelling the split transfer")
	}
}

// TestCancelRecvUnhooksRendezvousSink cancels a receive after it has
// accepted a rendezvous (sink registered, CTS in flight): the sink must
// be torn down, the sender's chunks dropped as stragglers, and the gate
// must stay usable.
func TestCancelRecvUnhooksRendezvousSink(t *testing.T) {
	d := newDuo(t, 2, splitStrat)
	const size = 1 << 20
	body := fill(size, 5)
	rr := d.gateBA.Irecv(6, make([]byte, size))
	// Hold both directions, then release only the sender's rails: the
	// RTS lands at B — which registers the sink and queues its CTS, now
	// held in flight on B's rails — and stops there.
	d.drvsB[0].HoldCompletions()
	d.drvsB[1].HoldCompletions()
	d.drvsA[0].HoldCompletions()
	d.drvsA[1].HoldCompletions()
	sr := d.gateAB.Isend(6, body)
	d.drvsA[0].ReleaseCompletions()
	d.drvsA[1].ReleaseCompletions()
	cause := errors.New("test: recv cancel")
	rr.Cancel(cause)
	if !rr.Done() || !errors.Is(rr.Err(), cause) {
		t.Fatalf("cancelled recv: done=%v err=%v", rr.Done(), rr.Err())
	}
	// Let the CTS through: the sender strips and ships the body; the
	// receiver drops every chunk against the torn-down sink, and the
	// send still completes cleanly.
	d.drvsB[0].ReleaseCompletions()
	d.drvsB[1].ReleaseCompletions()
	d.pump(t, sr)
	if err := sr.Err(); err != nil {
		t.Fatalf("send after recv-cancel: %v", err)
	}
	// The gate still works for the next message.
	recv2 := make([]byte, 64)
	rr2 := d.gateBA.Irecv(6, recv2)
	sr2 := d.gateAB.Isend(6, fill(64, 9))
	d.pump(t, sr2, rr2)
	if rr2.Err() != nil || !bytes.Equal(recv2, fill(64, 9)) {
		t.Fatalf("exchange after recv-cancel failed: %v", rr2.Err())
	}
}

// TestCancelRecvAbortsLaterRendezvousSender: a message claimed by a
// cancelled receive answers a late RTS with a recv-abort, so the
// sender's blocking rendezvous fails with ErrPeerRecvGone instead of
// parking forever on a CTS that will never come.
func TestCancelRecvAbortsLaterRendezvousSender(t *testing.T) {
	d := newDuo(t, 2, splitStrat)
	rr := d.gateBA.Irecv(3, make([]byte, 1<<20))
	rr.Cancel(nil)
	if !rr.Done() {
		t.Fatal("cancelled recv did not complete")
	}
	sr := d.gateAB.Isend(3, fill(1<<20, 4))
	d.pump(t, sr)
	if err := sr.Err(); !errors.Is(err, core.ErrPeerRecvGone) {
		t.Fatalf("rendezvous send to a cancelled receive: %v, want ErrPeerRecvGone", err)
	}
	// The tag's sequence space survives: the next exchange matches.
	recv := make([]byte, 64)
	rr2 := d.gateBA.Irecv(3, recv)
	sr2 := d.gateAB.Isend(3, fill(64, 5))
	d.pump(t, sr2, rr2)
	if rr2.Err() != nil || !bytes.Equal(recv, fill(64, 5)) {
		t.Fatalf("exchange after recv-abort failed: %v", rr2.Err())
	}
}

func TestCancelAfterCompletionIsNoop(t *testing.T) {
	d := newDuo(t, 1, balanced)
	msg := fill(256, 7)
	recv := make([]byte, 256)
	rr := d.gateBA.Irecv(2, recv)
	sr := d.gateAB.Isend(2, msg)
	d.pump(t, sr, rr)
	sr.Cancel(errors.New("late"))
	rr.Cancel(errors.New("late"))
	if sr.Err() != nil || rr.Err() != nil {
		t.Fatalf("late cancel rewrote outcomes: %v %v", sr.Err(), rr.Err())
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("late cancel corrupted delivered data")
	}
}

func TestWaitCtxDeadlineOnEventDrivenEngine(t *testing.T) {
	d := newDuo(t, 1, balanced)
	// No sender: the receive never completes; the engine has no pollable
	// rails, so WaitCtx parks on the completion channel and must be
	// woken by the ctx deadline alone.
	rr := d.gateBA.Irecv(1, make([]byte, 64))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := d.engB.WaitCtx(ctx, rr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx = %v, want DeadlineExceeded", err)
	}
	if rr.Done() {
		t.Fatal("WaitCtx expiry must detach, not complete the request")
	}
	// The request is still live: the message can still arrive.
	sr := d.gateAB.Isend(1, fill(64, 1))
	d.pump(t, sr, rr)
	if rr.Err() != nil {
		t.Fatalf("post-expiry delivery failed: %v", rr.Err())
	}
}

func TestWaitCtxPreCancelledCtx(t *testing.T) {
	d := newDuo(t, 1, balanced)
	rr := d.gateBA.Irecv(1, make([]byte, 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.engB.WaitCtx(ctx, rr); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx on cancelled ctx = %v", err)
	}
}

// TestConcurrentCancelVsCompletion races Cancel against the completion
// pipeline running on another goroutine (the receiver's Irecv drives the
// rendezvous grant, strip and delivery), under -race in CI: every
// request must reach exactly one terminal state — success with intact
// data, the cancel error, or an abort — and the gates must stay usable.
func TestConcurrentCancelVsCompletion(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 50
	}
	d := newDuo(t, 2, splitStrat)
	cause := errors.New("test: concurrent cancel")
	for i := 0; i < iters; i++ {
		size := 64 << 10 // rendezvous regime: completion needs the peer's grant
		if i%4 == 0 {
			size = 256 // eager: cancel races an already-finished request
		}
		msg := fill(size, byte(i))
		recv := make([]byte, size)
		sr := d.gateAB.Isend(9, msg)

		completions := new(atomic.Int64)
		sr.OnComplete(func() { completions.Add(1) })

		rrCh := make(chan *core.RecvReq, 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rrCh <- d.gateBA.Irecv(9, recv)
		}()
		go func() {
			defer wg.Done()
			sr.Cancel(cause)
		}()
		rr := <-rrCh
		_ = d.engA.Wait(sr)
		_ = d.engB.Wait(rr)
		wg.Wait()

		if n := completions.Load(); n != 1 {
			t.Fatalf("iter %d: send completed %d times", i, n)
		}
		switch err := sr.Err(); {
		case err == nil:
			if rr.Err() == nil && !bytes.Equal(recv, msg) {
				t.Fatalf("iter %d: clean completion with corrupt payload", i)
			}
		case errors.Is(err, cause):
			if rr.Err() == nil && !bytes.Equal(recv, msg) {
				t.Fatalf("iter %d: recv completed clean without full payload", i)
			}
		default:
			t.Fatalf("iter %d: unexpected send error %v", i, err)
		}
		if rr.Err() != nil && !errors.Is(rr.Err(), core.ErrMsgAborted) {
			t.Fatalf("iter %d: unexpected recv error %v", i, rr.Err())
		}
	}
	// The gates survived the storm.
	final := make([]byte, 128)
	rr := d.gateBA.Irecv(10, final)
	sr := d.gateAB.Isend(10, fill(128, 0xEE))
	d.pump(t, sr, rr)
	if sr.Err() != nil || rr.Err() != nil || !bytes.Equal(final, fill(128, 0xEE)) {
		t.Fatalf("gates unusable after cancel storm: %v %v", sr.Err(), rr.Err())
	}
}
