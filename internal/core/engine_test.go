package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// duo is a pair of engines joined by one or more in-memory rails.
type duo struct {
	engA, engB     *core.Engine
	gateAB, gateBA *core.Gate
	drvsA, drvsB   []*memdrv.Driver
}

func newDuo(t *testing.T, rails int, strat func() core.Strategy) *duo {
	t.Helper()
	d := &duo{
		engA: core.New(core.Config{Strategy: strat()}),
		engB: core.New(core.Config{Strategy: strat()}),
	}
	d.gateAB = d.engA.NewGate("B")
	d.gateBA = d.engB.NewGate("A")
	for i := 0; i < rails; i++ {
		a, b := memdrv.Pair(fmt.Sprintf("r%d", i), memdrv.DefaultProfile())
		d.gateAB.AddRail(a)
		d.gateBA.AddRail(b)
		d.drvsA = append(d.drvsA, a)
		d.drvsB = append(d.drvsB, b)
	}
	return d
}

func (d *duo) pump(t *testing.T, reqs ...core.Request) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		done := true
		for _, r := range reqs {
			if !r.Done() {
				done = false
				break
			}
		}
		if done {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("pump: requests did not complete")
}

func fill(n int, seed byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed ^ byte(i*37>>2)
	}
	return buf
}

func balanced() core.Strategy { return strategy.Must("balance") }

func TestBasicSendRecv(t *testing.T) {
	d := newDuo(t, 1, balanced)
	msg := fill(1000, 1)
	recv := make([]byte, 1000)
	rr := d.gateBA.Irecv(7, recv)
	sr := d.gateAB.Isend(7, msg)
	d.pump(t, sr, rr)
	if sr.Err() != nil || rr.Err() != nil {
		t.Fatalf("errs: %v %v", sr.Err(), rr.Err())
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch")
	}
	if rr.Len() != 1000 {
		t.Fatalf("Len = %d", rr.Len())
	}
}

func TestUnexpectedMessageBufferedThenMatched(t *testing.T) {
	d := newDuo(t, 1, balanced)
	msg := fill(512, 2)
	sr := d.gateAB.Isend(3, msg)
	// Deliver before any recv is posted.
	d.pump(t, sr)
	recv := make([]byte, 512)
	rr := d.gateBA.Irecv(3, recv)
	d.pump(t, rr)
	if !bytes.Equal(recv, msg) {
		t.Fatal("unexpected-path payload mismatch")
	}
}

func TestMultiSegmentMessage(t *testing.T) {
	d := newDuo(t, 2, balanced)
	segs := [][]byte{fill(100, 1), fill(200, 2), fill(300, 3), fill(50, 4)}
	total := 650
	recv := make([]byte, total)
	rr := d.gateBA.Irecv(1, recv)
	sr := d.gateAB.Isendv(1, segs)
	d.pump(t, sr, rr)
	want := bytes.Join(segs, nil)
	if !bytes.Equal(recv, want) {
		t.Fatal("multi-segment reassembly mismatch")
	}
}

func TestZeroLengthMessage(t *testing.T) {
	d := newDuo(t, 1, balanced)
	rr := d.gateBA.Irecv(9, nil)
	sr := d.gateAB.Isend(9, nil)
	d.pump(t, sr, rr)
	if rr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", rr.Len())
	}
}

func TestEmptySegmentList(t *testing.T) {
	d := newDuo(t, 1, balanced)
	rr := d.gateBA.Irecv(9, nil)
	sr := d.gateAB.Isendv(9, nil)
	d.pump(t, sr, rr)
	if rr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", rr.Len())
	}
}

func TestLargeMessageRendezvous(t *testing.T) {
	d := newDuo(t, 1, balanced)
	n := 200 << 10 // over the 32K eager max: rendezvous path
	msg := fill(n, 5)
	recv := make([]byte, n)
	rr := d.gateBA.Irecv(2, recv)
	sr := d.gateAB.Isend(2, msg)
	d.pump(t, sr, rr)
	if !bytes.Equal(recv, msg) {
		t.Fatal("rendezvous payload mismatch")
	}
}

func TestLargeMessageUnexpectedRTS(t *testing.T) {
	d := newDuo(t, 1, balanced)
	n := 100 << 10
	msg := fill(n, 6)
	sr := d.gateAB.Isend(2, msg)
	// The RTS arrived (memdrv delivers synchronously) with no posted
	// recv.
	if sr.Done() {
		t.Fatal("send completed before CTS was possible")
	}
	recv := make([]byte, n)
	rr := d.gateBA.Irecv(2, recv)
	d.pump(t, sr, rr)
	if !bytes.Equal(recv, msg) {
		t.Fatal("late-recv rendezvous mismatch")
	}
}

func TestManyMessagesSameTagStayOrdered(t *testing.T) {
	d := newDuo(t, 2, balanced)
	const n = 20
	var sends, recvs []core.Request
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 64)
		recvs = append(recvs, d.gateBA.Irecv(4, bufs[i]))
	}
	for i := 0; i < n; i++ {
		sends = append(sends, d.gateAB.Isend(4, fill(64, byte(i))))
	}
	d.pump(t, append(sends, recvs...)...)
	for i := 0; i < n; i++ {
		if !bytes.Equal(bufs[i], fill(64, byte(i))) {
			t.Fatalf("message %d matched out of order", i)
		}
	}
}

func TestInterleavedTags(t *testing.T) {
	d := newDuo(t, 2, balanced)
	a, b := fill(128, 1), fill(256, 2)
	ra := make([]byte, 128)
	rb := make([]byte, 256)
	rra := d.gateBA.Irecv(10, ra)
	rrb := d.gateBA.Irecv(20, rb)
	// Send in the opposite order of posting.
	srb := d.gateAB.Isend(20, b)
	sra := d.gateAB.Isend(10, a)
	d.pump(t, sra, srb, rra, rrb)
	if !bytes.Equal(ra, a) || !bytes.Equal(rb, b) {
		t.Fatal("tag matching mixed up payloads")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	d := newDuo(t, 2, balanced)
	ab, ba := fill(4096, 1), fill(8192, 2)
	rab := make([]byte, 4096)
	rba := make([]byte, 8192)
	rr1 := d.gateBA.Irecv(1, rab)
	rr2 := d.gateAB.Irecv(1, rba)
	sr1 := d.gateAB.Isend(1, ab)
	sr2 := d.gateBA.Isend(1, ba)
	d.pump(t, sr1, sr2, rr1, rr2)
	if !bytes.Equal(rab, ab) || !bytes.Equal(rba, ba) {
		t.Fatal("bidirectional payload mismatch")
	}
}

func TestBidirectionalRendezvous(t *testing.T) {
	d := newDuo(t, 2, balanced)
	n := 150 << 10
	ab, ba := fill(n, 3), fill(n, 4)
	rab := make([]byte, n)
	rba := make([]byte, n)
	rr1 := d.gateBA.Irecv(1, rab)
	rr2 := d.gateAB.Irecv(1, rba)
	sr1 := d.gateAB.Isend(1, ab)
	sr2 := d.gateBA.Isend(1, ba)
	d.pump(t, sr1, sr2, rr1, rr2)
	if !bytes.Equal(rab, ab) || !bytes.Equal(rba, ba) {
		t.Fatal("simultaneous rendezvous in both directions corrupted data")
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	d := newDuo(t, 1, balanced)
	msg := fill(1000, 7)
	recv := make([]byte, 10)
	rr := d.gateBA.Irecv(5, recv)
	sr := d.gateAB.Isend(5, msg)
	d.pump(t, sr, rr)
	if rr.Err() == nil {
		t.Fatal("oversized message into small buffer did not error")
	}
}

func TestRecvBufferTooSmallRendezvous(t *testing.T) {
	d := newDuo(t, 1, balanced)
	msg := fill(100<<10, 7)
	recv := make([]byte, 10)
	rr := d.gateBA.Irecv(5, recv)
	sr := d.gateAB.Isend(5, msg)
	_ = sr // sender may stay pending forever (no CTS); only check recv
	d.pump(t, rr)
	if rr.Err() == nil {
		t.Fatal("oversized rendezvous into small buffer did not error")
	}
}

func TestPackerBuildsMessage(t *testing.T) {
	d := newDuo(t, 1, balanced)
	p := d.gateAB.NewMessage(6)
	p.Add(fill(10, 1)).Add(fill(20, 2)).Add(fill(30, 3))
	if p.Len() != 60 {
		t.Fatalf("Packer.Len = %d", p.Len())
	}
	recv := make([]byte, 60)
	rr := d.gateBA.Irecv(6, recv)
	sr := p.Send()
	d.pump(t, sr, rr)
	want := append(append(fill(10, 1), fill(20, 2)...), fill(30, 3)...)
	if !bytes.Equal(recv, want) {
		t.Fatal("packer payload mismatch")
	}
}

func TestPackerDoubleSendPanics(t *testing.T) {
	d := newDuo(t, 1, balanced)
	p := d.gateAB.NewMessage(1).Add([]byte("x"))
	p.Send()
	defer func() {
		if recover() == nil {
			t.Fatal("second Send did not panic")
		}
	}()
	p.Send()
}

func TestPackerAddAfterSendPanics(t *testing.T) {
	d := newDuo(t, 1, balanced)
	p := d.gateAB.NewMessage(1).Add([]byte("x"))
	p.Send()
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Send did not panic")
		}
	}()
	p.Add([]byte("y"))
}

func TestRequestCallbacks(t *testing.T) {
	d := newDuo(t, 1, balanced)
	fired := 0
	recv := make([]byte, 8)
	rr := d.gateBA.Irecv(1, recv)
	rr.OnComplete(func() { fired++ })
	sr := d.gateAB.Isend(1, fill(8, 1))
	d.pump(t, sr, rr)
	if fired != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", fired)
	}
	// Registering after completion runs immediately.
	rr.OnComplete(func() { fired++ })
	if fired != 2 {
		t.Fatalf("late OnComplete fired %d times total, want 2", fired)
	}
}

func TestRequestAccessors(t *testing.T) {
	d := newDuo(t, 1, balanced)
	recv := make([]byte, 8)
	rr := d.gateBA.Irecv(11, recv)
	sr := d.gateAB.Isend(11, fill(8, 1))
	if sr.Tag() != 11 || rr.Tag() != 11 {
		t.Fatal("Tag accessor")
	}
	if sr.Gate() != d.gateAB || rr.Gate() != d.gateBA {
		t.Fatal("Gate accessor")
	}
	if sr.MsgID() != 0 || rr.MsgID() != 0 {
		t.Fatal("first MsgID not 0")
	}
	d.pump(t, sr, rr)
	if !bytes.Equal(rr.Buf(), fill(8, 1)) {
		t.Fatal("Buf accessor")
	}
}

func TestGateAccessors(t *testing.T) {
	d := newDuo(t, 2, balanced)
	if d.gateAB.Name() != "B" {
		t.Fatalf("Name = %q", d.gateAB.Name())
	}
	if d.gateAB.Engine() != d.engA {
		t.Fatal("Engine accessor")
	}
	if len(d.gateAB.Rails()) != 2 || d.gateAB.UpRails() != 2 {
		t.Fatal("rails accessors")
	}
	r := d.gateAB.Rails()[1]
	if r.Index() != 1 || r.Gate() != d.gateAB || r.Driver() == nil {
		t.Fatal("rail accessors")
	}
}

func TestEngineGatesSnapshot(t *testing.T) {
	d := newDuo(t, 1, balanced)
	gs := d.engA.Gates()
	if len(gs) != 1 || gs[0] != d.gateAB {
		t.Fatalf("Gates = %v", gs)
	}
}

func TestTooManySegmentsPanics(t *testing.T) {
	d := newDuo(t, 1, balanced)
	segs := make([][]byte, 0x10000)
	for i := range segs {
		segs[i] = []byte{0}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversegmented message did not panic")
		}
	}()
	d.gateAB.Isendv(1, segs)
}

func TestMissingStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without strategy did not panic")
		}
	}()
	core.New(core.Config{})
}

func TestEngineCloseClosesDrivers(t *testing.T) {
	d := newDuo(t, 2, balanced)
	if err := d.engA.Close(); err != nil {
		t.Fatal(err)
	}
	sr := d.gateAB.Isend(1, []byte("x"))
	for i := 0; i < 10; i++ {
		runtime.Gosched()
	}
	if !sr.Done() || sr.Err() == nil {
		t.Fatal("send after Close should fail")
	}
}

// Property: any mix of segment sizes (eager and rendezvous) round-trips
// intact over a 2-rail gate with every strategy.
func TestPropertyRoundTripAllStrategies(t *testing.T) {
	strategies := map[string]func() core.Strategy{
		"fifo":    func() core.Strategy { return strategy.NewFIFO(0) },
		"aggreg":  func() core.Strategy { return strategy.NewAggreg(0) },
		"balance": func() core.Strategy { return strategy.Must("balance") },
		"aggrail": func() core.Strategy { return strategy.Must("aggrail") },
		"split":   func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
	}
	for name, strat := range strategies {
		strat := strat
		t.Run(name, func(t *testing.T) {
			f := func(sizes []uint32, seed byte) bool {
				if len(sizes) == 0 || len(sizes) > 8 {
					return true
				}
				d := newDuo(t, 2, strat)
				segs := make([][]byte, len(sizes))
				total := 0
				for i, s := range sizes {
					n := int(s % 100000) // 0 .. ~100 KB, spans eager and rdv
					segs[i] = fill(n, seed^byte(i))
					total += n
				}
				recv := make([]byte, total)
				rr := d.gateBA.Irecv(1, recv)
				sr := d.gateAB.Isendv(1, segs)
				d.pump(t, sr, rr)
				return bytes.Equal(recv, bytes.Join(segs, nil))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func aggregStrat() core.Strategy { return strategy.NewAggreg(0) }

func pairDrv(name string) (*memdrv.Driver, *memdrv.Driver) {
	return memdrv.Pair(name, memdrv.DefaultProfile())
}
