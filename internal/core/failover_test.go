package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// Rail failure handling: the LA-MPI-style network fault tolerance the
// paper's related work motivates. A failed send marks the rail down and
// the engine reroutes pending work onto the survivors.

func TestFailoverEagerSendRejected(t *testing.T) {
	d := newDuo(t, 2, balanced)
	// Rail 0 refuses the send outright (down before posting).
	d.drvsA[0].SetDown(true)
	msg := fill(512, 1)
	recv := make([]byte, 512)
	rr := d.gateBA.Irecv(1, recv)
	sr := d.gateAB.Isend(1, msg)
	d.pump(t, sr, rr)
	if sr.Err() != nil {
		t.Fatalf("send failed despite a healthy rail: %v", sr.Err())
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch after failover")
	}
	if d.gateAB.UpRails() != 1 {
		t.Fatalf("UpRails = %d, want 1", d.gateAB.UpRails())
	}
}

func TestFailoverPostedSendFails(t *testing.T) {
	d := newDuo(t, 2, balanced)
	// Rail 0 accepts the packet, then reports SendFailed.
	d.drvsA[0].FailNextSend()
	msg := fill(2048, 2)
	recv := make([]byte, 2048)
	rr := d.gateBA.Irecv(1, recv)
	sr := d.gateAB.Isend(1, msg)
	d.pump(t, sr, rr)
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch after posted-send failure")
	}
}

func TestFailoverRendezvousChunk(t *testing.T) {
	d := newDuo(t, 2, balanced)
	n := 128 << 10
	msg := fill(n, 3)
	recv := make([]byte, n)
	rr := d.gateBA.Irecv(1, recv)
	// The greedy strategy sends the RTS and then the whole rdv body as
	// one chunk on rail 0. Arm rail 0 to fail its second send (the
	// chunk): the body range must be requeued and re-served on rail 1.
	d.drvsA[0].FailAfterSends(2)
	sr := d.gateAB.Isend(1, msg)
	d.pump(t, sr, rr)
	if p1, _ := d.gateAB.Rails()[1].Stats(); p1 == 0 {
		t.Fatal("surviving rail carried nothing; failure never exercised")
	}
	if sr.Err() != nil {
		t.Fatalf("send failed despite surviving rail: %v", sr.Err())
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch after chunk failure")
	}
}

func TestFailoverAllRailsDownErrorsRequests(t *testing.T) {
	d := newDuo(t, 2, balanced)
	d.drvsA[0].SetDown(true)
	d.drvsA[1].SetDown(true)
	sr := d.gateAB.Isend(1, fill(64, 1))
	for i := 0; i < 100 && !sr.Done(); i++ {
		runtime.Gosched()
	}
	if !sr.Done() || sr.Err() == nil {
		t.Fatal("send with all rails down did not error")
	}
}

func TestFailoverMarkDown(t *testing.T) {
	d := newDuo(t, 2, balanced)
	d.gateAB.Rails()[0].MarkDown()
	if !d.gateAB.Rails()[0].Down() {
		t.Fatal("MarkDown did not take")
	}
	msg := fill(50<<10, 4) // rendezvous-sized
	recv := make([]byte, len(msg))
	rr := d.gateBA.Irecv(1, recv)
	sr := d.gateAB.Isend(1, msg)
	d.pump(t, sr, rr)
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch with rail 0 administratively down")
	}
	// Everything must have moved on rail 1.
	p0, _ := d.gateAB.Rails()[0].Stats()
	p1, _ := d.gateAB.Rails()[1].Stats()
	if p0 != 0 || p1 == 0 {
		t.Fatalf("stats rail0=%d rail1=%d, want 0 and >0", p0, p1)
	}
}

func TestFailoverSplitStrategyReservesOrphanedShares(t *testing.T) {
	split := func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }
	d := newDuo(t, 2, split)
	n := 256 << 10
	msg := fill(n, 5)
	recv := make([]byte, n)
	rr := d.gateBA.Irecv(1, recv)
	// Rail 1's first send will be its pinned share of the split plan
	// (the RTS goes out on rail 0): fail it so the share is orphaned
	// and must be mopped up by rail 0.
	d.drvsA[1].FailAfterSends(1)
	sr := d.gateAB.Isend(1, msg)
	d.pump(t, sr, rr)
	if sr.Err() != nil {
		t.Fatalf("send failed: %v", sr.Err())
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch after orphaned split share")
	}
}

func TestFailoverSmallMessagesAfterFastestRailDies(t *testing.T) {
	// aggrail favours the fastest rail for small messages; when it dies,
	// smalls must flow over the survivor.
	aggrail := func() core.Strategy { return strategy.Must("aggrail") }
	d := newDuo(t, 2, aggrail)
	d.drvsA[0].SetDown(true) // equal profiles: rail 0 is "fastest" by tie-break
	msg := fill(256, 6)
	recv := make([]byte, 256)
	rr := d.gateBA.Irecv(1, recv)
	sr := d.gateAB.Isend(1, msg)
	d.pump(t, sr, rr)
	if !bytes.Equal(recv, msg) {
		t.Fatal("small message lost with fastest rail down")
	}
}
