package mpl_test

// Real-socket lifecycle tests: blocking operations surface rail-failure
// errors instead of swallowing them, and context deadlines cancel
// transfers end to end over tcpdrv — the wall-clock counterpart of the
// virtual-time tests in internal/bench.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/mpl"
	"newmad/internal/strategy"
)

// tcpDuo is a two-rank communicator pair joined by real loopback TCP
// rails.
type tcpDuo struct {
	engA, engB   *core.Engine
	gateAB       *core.Gate
	commA, commB *mpl.Comm
	drvsB        []*tcpdrv.Driver
}

func newTCPDuo(t *testing.T, rails int) *tcpDuo {
	t.Helper()
	d := &tcpDuo{
		engA: core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)}),
		engB: core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)}),
	}
	t.Cleanup(func() {
		_ = d.engA.Close()
		_ = d.engB.Close()
	})
	d.gateAB = d.engA.NewGate("B")
	gateBA := d.engB.NewGate("A")
	for i := 0; i < rails; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		type accepted struct {
			drv *tcpdrv.Driver
			err error
		}
		ch := make(chan accepted, 1)
		go func() {
			drv, err := tcpdrv.Accept(l, tcpdrv.Options{})
			ch <- accepted{drv, err}
		}()
		dialer, err := tcpdrv.Dial(l.Addr().String(), tcpdrv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		acc := <-ch
		l.Close()
		if acc.err != nil {
			t.Fatal(acc.err)
		}
		d.gateAB.AddRail(dialer)
		gateBA.AddRail(acc.drv)
		d.drvsB = append(d.drvsB, acc.drv)
	}
	var err error
	if d.commA, err = mpl.New(d.engA, 0, []*core.Gate{nil, d.gateAB}, nil); err != nil {
		t.Fatal(err)
	}
	if d.commB, err = mpl.New(d.engB, 1, []*core.Gate{gateBA, nil}, nil); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBlockingSendSurfacesRailDeath is the regression for Comm.wait
// swallowing request errors: a blocking Send whose gate dies mid-call
// must return the RailDown-derived error, not nothing.
func TestBlockingSendSurfacesRailDeath(t *testing.T) {
	d := newTCPDuo(t, 2)
	// A rendezvous-sized message with no receiver posted: Send parks
	// until the peer dies under it.
	errCh := make(chan error, 1)
	go func() {
		errCh <- d.commA.Send(1, 3, make([]byte, 1<<20))
	}()
	time.Sleep(100 * time.Millisecond) // let the Send post its RTS and park
	for _, drv := range d.drvsB {
		_ = drv.Close() // kill the peer's end of every rail
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blocking Send returned nil after its gate died")
		}
		if !strings.Contains(err.Error(), "rail") {
			t.Fatalf("Send error %q does not derive from the rail failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocking Send still parked after its gate died")
	}
}

// TestSendCtxDeadlineAbortsPeerTCP is the acceptance criterion pinned on
// real sockets: a cancelled (deadline-expired) SendCtx on a 2-rail split
// transfer returns ctx's error, frees the backlog, and aborts the peer's
// receive with a non-nil error in bounded time.
func TestSendCtxDeadlineAbortsPeerTCP(t *testing.T) {
	d := newTCPDuo(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := d.commA.SendCtx(ctx, 1, 5, make([]byte, 1<<20))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SendCtx = %v, want DeadlineExceeded", err)
	}
	// The cancel frees the sender's backlog (the KAbort control packet
	// flushes out on the now-idle rails). The rails' I/O goroutines
	// mutate the backlog, so it is read inside the gate's domain.
	backlogEmpty := func() bool {
		empty := make(chan bool, 1)
		d.gateAB.Exec(func(o core.Ops) { empty <- o.Gate().Backlog().Empty() })
		return <-empty
	}
	deadline := time.Now().Add(5 * time.Second)
	for !backlogEmpty() {
		if time.Now().After(deadline) {
			t.Fatal("sender backlog not freed after SendCtx expiry")
		}
		time.Sleep(time.Millisecond)
	}
	// The peer's matching receive aborts instead of hanging.
	_, err = d.commB.RecvCtx(contextWithTestDeadline(t, 10*time.Second), 0, 5, make([]byte, 1<<20))
	if !errors.Is(err, core.ErrMsgAborted) {
		t.Fatalf("peer Recv = %v, want ErrMsgAborted", err)
	}
}

// TestRecvCtxDeadlineTCP: a receive nobody serves expires with ctx's
// error and unhooks cleanly — a later send on the tag is not matched to
// the expired receive.
func TestRecvCtxDeadlineTCP(t *testing.T) {
	d := newTCPDuo(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := d.commB.RecvCtx(ctx, 0, 9, make([]byte, 64)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RecvCtx = %v, want DeadlineExceeded", err)
	}
	// Message 0 was claimed by the expired receive; a fresh exchange on
	// the same tag still works.
	errCh := make(chan error, 1)
	go func() {
		if err := d.commA.Send(1, 9, []byte("claimed")); err != nil {
			errCh <- err
			return
		}
		errCh <- d.commA.Send(1, 9, []byte("matched"))
	}()
	buf := make([]byte, 64)
	n, err := d.commB.RecvCtx(contextWithTestDeadline(t, 10*time.Second), 0, 9, buf)
	if err != nil {
		t.Fatalf("follow-up Recv: %v", err)
	}
	if string(buf[:n]) != "matched" {
		t.Fatalf("follow-up Recv got %q, want the second message", buf[:n])
	}
	if err := <-errCh; err != nil {
		t.Fatalf("sends: %v", err)
	}
}

// contextWithTestDeadline bounds a blocking call so a regression hangs
// the subtest, not the whole run.
func contextWithTestDeadline(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
