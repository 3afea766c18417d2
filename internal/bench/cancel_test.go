package bench

// Virtual-time cancellation and deadline semantics: WaitReqsCtx parks
// simulated processes and wakes them on DES-clock deadlines, request
// cancellation tears down split transfers mid-flight in virtual time,
// and cancelled collectives leave the reserved-tag sequence space
// intact.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

func cancelPair() *Pair {
	return NewPair(PairConfig{
		NICs:     []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()},
		Strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
	})
}

// TestWaitReqsCtxVirtualDeadline pins that deadline expiry parks and
// wakes the Proc in *virtual* time: the process resumes at exactly the
// simulated-clock deadline, not after any wall-clock wait.
func TestWaitReqsCtxVirtualDeadline(t *testing.T) {
	p := cancelPair()
	const timeout = 5 * time.Millisecond
	var wokeAt des.Time
	var err error
	p.W.Spawn("waiter", func(pr *des.Proc) {
		rr := p.GateBA.Irecv(1, make([]byte, 64)) // nobody sends
		ctx := WithSimTimeout(context.Background(), pr, timeout)
		err = WaitReqsCtx(ctx, pr, rr)
		wokeAt = pr.Now()
	})
	p.W.Run()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitReqsCtx = %v, want DeadlineExceeded", err)
	}
	if wokeAt != des.FromDuration(timeout) {
		t.Fatalf("woke at virtual %v, want exactly %v", wokeAt.Duration(), timeout)
	}
}

// TestWaitReqsCtxStoppedTimerAddsNoPhantomTime: a request completing
// well before its deadline must stop the timer, so the abandoned
// deadline never stretches the run's virtual makespan.
func TestWaitReqsCtxStoppedTimerAddsNoPhantomTime(t *testing.T) {
	p := cancelPair()
	const deadline = time.Hour
	msg := []byte("prompt")
	p.W.Spawn("recv", func(pr *des.Proc) {
		rr := p.GateBA.Irecv(1, make([]byte, len(msg)))
		if err := WaitReqsCtx(WithSimTimeout(context.Background(), pr, deadline), pr, rr); err != nil {
			t.Errorf("recv: %v", err)
		}
	})
	p.W.Spawn("send", func(pr *des.Proc) {
		WaitReqs(pr, p.GateAB.Isend(1, msg))
	})
	p.W.Run()
	if end := p.W.Now(); end >= des.FromDuration(deadline) {
		t.Fatalf("stopped deadline timer stretched the run to %v", end.Duration())
	}
}

// TestCancelSplitTransferSimdrv is the acceptance criterion pinned on
// the simulated driver: cancelling a send mid-flight on a 2-rail split
// transfer frees the backlog and aborts the peer's receive with a
// non-nil error in bounded (virtual) time.
func TestCancelSplitTransferSimdrv(t *testing.T) {
	p := cancelPair()
	const size = 4 << 20 // ~2 ms across both rails: cancel at 1 ms is mid-strip
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i * 13)
	}
	var sendErr, recvErr error
	var recvDone des.Time
	p.W.Spawn("recv", func(pr *des.Proc) {
		rr := p.GateBA.Irecv(2, make([]byte, size))
		recvErr = WaitReqsCtx(context.Background(), pr, rr)
		recvDone = pr.Now()
	})
	p.W.Spawn("send", func(pr *des.Proc) {
		sr := p.GateAB.Isend(2, body)
		pr.Sleep(des.FromDuration(time.Millisecond))
		sr.Cancel(nil)
		sendErr = WaitReqsCtx(context.Background(), pr, sr)
	})
	p.W.Run()
	if !errors.Is(sendErr, core.ErrCanceled) {
		t.Fatalf("cancelled send err = %v, want ErrCanceled", sendErr)
	}
	if recvErr == nil {
		t.Fatal("peer receive completed clean despite the cancel")
	}
	if !errors.Is(recvErr, core.ErrMsgAborted) {
		t.Fatalf("peer receive err = %v, want ErrMsgAborted", recvErr)
	}
	// Bounded time: the abort must reach the peer promptly — well before
	// anything like a full-transfer timescale multiple.
	if limit := des.FromDuration(100 * time.Millisecond); recvDone > limit {
		t.Fatalf("peer receive aborted only at %v", recvDone.Duration())
	}
	if !p.GateAB.Backlog().Empty() {
		t.Fatal("sender backlog not freed by the cancel")
	}
}

// TestSendCtxSimDeadlineAbortsPeer: the mpl blocking path under
// simulation — SendCtx expires on the DES clock, cancels the transfer,
// and the late receiver observes the abort instead of hanging.
func TestSendCtxSimDeadlineAbortsPeer(t *testing.T) {
	c := NewCluster(ClusterConfig{
		Nodes:    2,
		NICs:     []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()},
		Strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
	})
	const size = 1 << 20
	var sendErr, recvErr error
	var sendReturned des.Time
	c.SpawnRanks(func(pr *des.Proc, comm *mpl.Comm) {
		switch comm.Rank() {
		case 0:
			ctx := WithSimTimeout(context.Background(), pr, time.Millisecond)
			sendErr = comm.SendCtx(ctx, 1, 7, make([]byte, size))
			sendReturned = pr.Now()
		case 1:
			// Enter the receive only after rank 0 has long given up.
			pr.Sleep(des.FromDuration(5 * time.Millisecond))
			_, recvErr = comm.Recv(0, 7, make([]byte, size))
		}
	})
	c.W.Run()
	if !errors.Is(sendErr, context.DeadlineExceeded) {
		t.Fatalf("SendCtx = %v, want DeadlineExceeded", sendErr)
	}
	if sendReturned != des.FromDuration(time.Millisecond) {
		t.Fatalf("SendCtx returned at %v, want exactly 1ms", sendReturned.Duration())
	}
	if !errors.Is(recvErr, core.ErrMsgAborted) {
		t.Fatalf("late Recv = %v, want ErrMsgAborted", recvErr)
	}
}

// TestCollectiveCancelPreservesTagSpace: a barrier abandoned on deadline
// by every rank must not corrupt the reserved-tag sequence space — the
// next collective matches on fresh tags and computes the right result.
func TestCollectiveCancelPreservesTagSpace(t *testing.T) {
	const ranks = 4
	c := NewCluster(ClusterConfig{
		Nodes:    ranks,
		NICs:     []simnet.NICParams{simnet.Myri10G()},
		Strategy: func() core.Strategy { return strategy.Must("aggrail") },
	})
	barrierErrs := make([]error, ranks)
	sums := make([]int64, ranks)
	sumErrs := make([]error, ranks)
	c.SpawnRanks(func(pr *des.Proc, comm *mpl.Comm) {
		rank := comm.Rank()
		if rank == 0 {
			// Rank 0 shows up only after everyone's deadline: the
			// barrier cannot complete anywhere.
			pr.Sleep(des.FromDuration(2 * time.Millisecond))
		}
		ctx := WithSimDeadline(context.Background(), des.FromDuration(time.Millisecond))
		barrierErrs[rank] = comm.BarrierCtx(ctx)
		// The cancelled operation consumed its tag on every rank; the
		// next collective must work, whatever traffic the cancelled one
		// left behind.
		sums[rank], sumErrs[rank] = comm.AllSumInt64(int64(rank + 1))
	})
	c.W.Run()
	for r := 0; r < ranks; r++ {
		if !errors.Is(barrierErrs[r], context.DeadlineExceeded) {
			t.Fatalf("rank %d: BarrierCtx = %v, want DeadlineExceeded", r, barrierErrs[r])
		}
		if sumErrs[r] != nil {
			t.Fatalf("rank %d: allreduce after cancelled barrier: %v", r, sumErrs[r])
		}
		if want := int64(ranks * (ranks + 1) / 2); sums[r] != want {
			t.Fatalf("rank %d: sum = %d, want %d", r, sums[r], want)
		}
	}
}

// TestBcastChainCancelMidChain: a chained Bcast whose deadline expires
// mid-chain, while the root still has chunks to send and every relay
// holds pre-posted receives and forwarded sends, is torn down on every
// gate. No receive stays posted, no send stays queued or in flight, no
// buffer lease is left live, and the next collective still matches. A
// lone 1 MiB chain takes about 850 us on these rails; the deadlines
// fall at several points of it.
func TestBcastChainCancelMidChain(t *testing.T) {
	for _, us := range []int{300, 400, 500} {
		t.Run(fmt.Sprintf("%dus", us), func(t *testing.T) { cancelChainAt(t, time.Duration(us)*time.Microsecond) })
	}
}

func cancelChainAt(t *testing.T, deadline time.Duration) {
	const ranks, size, root = 8, 1 << 20, 3
	live := core.PoolStats().Live
	c := NewCluster(ClusterConfig{Nodes: ranks, NICs: bothRails(), Strategy: splitStrat, Sample: true})
	errs := make([]error, ranks)
	got := make([][]byte, ranks)
	sums := make([]int64, ranks)
	c.SpawnRanks(func(pr *des.Proc, comm *mpl.Comm) {
		sel := comm.Selector()
		sel.Force = mpl.AlgoPipeline
		comm.SetSelector(sel)
		mustColl(comm.Barrier())
		buf := make([]byte, size)
		if comm.Rank() == root {
			for i := range buf {
				buf[i] = byte(i%251 + 1)
			}
		}
		ctx := WithSimTimeout(context.Background(), pr, deadline)
		errs[comm.Rank()] = comm.BcastCtx(ctx, root, buf)
		got[comm.Rank()] = buf
		// The cancel has already reached this rank's gates, which hold
		// only its own sends and receives: none may still be queued or
		// posted, whatever the other ranks do next. (Abort notices for
		// the peers may still wait in the control queue.)
		for peer, g := range c.Gates[comm.Rank()] {
			if g == nil {
				continue
			}
			b := g.Backlog()
			if s := g.Stats(); s.PostedRecvs != 0 || b.SegCount() != 0 || b.BodyCount() != 0 {
				t.Errorf("rank %d gate to %d after the cancel: %d receives posted, %d segments and %d bodies queued",
					comm.Rank(), peer, s.PostedRecvs, b.SegCount(), b.BodyCount())
			}
		}
		var err error
		sums[comm.Rank()], err = comm.AllSumInt64(int64(comm.Rank()))
		mustColl(err)
	})
	c.W.Run()
	for r, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("rank %d: BcastCtx = %v, want DeadlineExceeded", r, err)
		}
		if sums[r] != ranks*(ranks-1)/2 {
			t.Errorf("rank %d: sum after the cancelled bcast = %d", r, sums[r])
		}
	}
	// Mid-chain: the first relay holds some of the payload but not all.
	first := got[(root+1)%ranks]
	if first[0] == 0 || first[size-1] != 0 {
		t.Fatalf("deadline did not fall mid-chain: first relay's bytes 0 and %d are %d and %d", size-1, first[0], first[size-1])
	}
	for i := range c.Gates {
		for j, g := range c.Gates[i] {
			if g == nil {
				continue
			}
			if s := g.Stats(); s.PostedRecvs != 0 || s.PendingSends != 0 || !g.Backlog().Empty() {
				t.Errorf("gate %d->%d: %d receives posted, %d sends in flight, backlog empty %v",
					i, j, s.PostedRecvs, s.PendingSends, g.Backlog().Empty())
			}
		}
	}
	if d := core.PoolStats().Live - live; d != 0 {
		t.Errorf("pool Live delta %d, want 0", d)
	}
}
