package strategy_test

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/strategy"
)

// hedgePair joins two engines over two memdrv rails, hedging on the A
// side. Returned drivers are A's, in rail order.
type hedgePair struct {
	engA, engB     *core.Engine
	gateAB, gateBA *core.Gate
	drvsA          []*memdrv.Driver
	hedge          *strategy.Hedge
}

func newHedgePair(t *testing.T, h *strategy.Hedge) *hedgePair {
	t.Helper()
	p := &hedgePair{
		engA:  core.New(core.Config{Strategy: h}),
		engB:  core.New(core.Config{Strategy: strategy.Must("balance")}),
		hedge: h,
	}
	t.Cleanup(func() {
		p.engA.Close()
		p.engB.Close()
	})
	p.gateAB = p.engA.NewGate("B")
	p.gateBA = p.engB.NewGate("A")
	for i := 0; i < 2; i++ {
		a, b := memdrv.Pair(fmt.Sprintf("h%d", i), memdrv.DefaultProfile())
		p.gateAB.AddRail(a)
		p.gateBA.AddRail(b)
		p.drvsA = append(p.drvsA, a)
	}
	return p
}

// waitLeases polls until the global buffer-lease count returns to want.
func waitLeases(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for core.PoolStats().Live != want {
		if !time.Now().Before(deadline) {
			t.Fatalf("buffer leases leaked: live %d, want %d", core.PoolStats().Live, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHedgeFiresAndDedupes: with the primary's completion artificially
// held past the stagger, the duplicate races down the second rail; the
// receive completes byte-correct exactly once and the straggler copy is
// absorbed by the receiver's dedupe.
func TestHedgeFiresAndDedupes(t *testing.T) {
	leases := core.PoolStats().Live
	h := strategy.NewHedgeTuned(strategy.Must("balance"), 5*time.Millisecond, 5*time.Millisecond)
	p := newHedgePair(t, h)
	// Hold both rails' send completions: the primary cannot complete, so
	// the stagger timer fires and submits the duplicate.
	for _, d := range p.drvsA {
		d.HoldCompletions()
	}
	msg := []byte("hedged payload, small and eager")
	recv := make([]byte, len(msg))
	rr := p.gateBA.Irecv(3, recv)
	sr := p.gateAB.Isend(3, msg)
	deadline := time.Now().Add(10 * time.Second)
	for p.hedge.Stats().Hedged == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("stagger timer never hedged")
		}
		time.Sleep(time.Millisecond)
	}
	for _, d := range p.drvsA {
		d.ReleaseCompletions()
	}
	if err := p.engA.Wait(sr); err != nil {
		t.Fatal(err)
	}
	if err := p.engB.Wait(rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("hedged payload corrupted")
	}
	st := p.hedge.Stats()
	if st.Eligible == 0 || st.Hedged != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.DupBytes != uint64(len(msg)) || st.DupBytes > st.PrimaryBytes {
		t.Fatalf("duplicate byte accounting: %+v", st)
	}
	// A second message on the same tag is unaffected by the straggler.
	msg2 := []byte("follow-up on the same tag")
	recv2 := make([]byte, len(msg2))
	rr2 := p.gateBA.Irecv(3, recv2)
	sr2 := p.gateAB.Isend(3, msg2)
	if err := p.engA.Wait(sr2); err != nil {
		t.Fatal(err)
	}
	if err := p.engB.Wait(rr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv2, msg2) {
		t.Fatal("follow-up payload corrupted")
	}
	waitLeases(t, leases)
}

// TestHedgeLoserCancelled: when the primary completes while the
// duplicate is still in flight, the duplicate is cancelled — and the
// cancellation never aborts the receiver's origin channel.
func TestHedgeLoserCancelled(t *testing.T) {
	leases := core.PoolStats().Live
	h := strategy.NewHedgeTuned(strategy.Must("balance"), 5*time.Millisecond, 5*time.Millisecond)
	p := newHedgePair(t, h)
	for _, d := range p.drvsA {
		d.HoldCompletions()
	}
	msg := []byte("primary wins this race")
	recv := make([]byte, len(msg))
	rr := p.gateBA.Irecv(4, recv)
	sr := p.gateAB.Isend(4, msg)
	// The primary went down exactly one rail before the timer fired.
	var primary int
	deadline := time.Now().Add(10 * time.Second)
	for {
		p0, _ := p.gateAB.Rails()[0].Stats()
		p1, _ := p.gateAB.Rails()[1].Stats()
		if p0+p1 == 1 {
			if p1 == 1 {
				primary = 1
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("primary not sent: %d/%d packets", p0, p1)
		}
		time.Sleep(time.Millisecond)
	}
	for p.hedge.Stats().Hedged == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("stagger timer never hedged")
		}
		time.Sleep(time.Millisecond)
	}
	// Release only the primary: it completes and cancels the held loser.
	p.drvsA[primary].ReleaseCompletions()
	if err := p.engA.Wait(sr); err != nil {
		t.Fatal(err)
	}
	for p.hedge.Stats().Cancelled == 0 {
		if !time.Now().Before(deadline) {
			t.Fatalf("loser never cancelled: %+v", p.hedge.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	p.drvsA[1-primary].ReleaseCompletions()
	if err := p.engB.Wait(rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload corrupted")
	}
	// The origin channel survived the cancellation.
	msg2 := []byte("channel still healthy")
	recv2 := make([]byte, len(msg2))
	rr2 := p.gateBA.Irecv(4, recv2)
	sr2 := p.gateAB.Isend(4, msg2)
	if err := p.engA.Wait(sr2); err != nil {
		t.Fatal(err)
	}
	if err := p.engB.Wait(rr2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv2, msg2) {
		t.Fatal("post-cancel payload corrupted")
	}
	waitLeases(t, leases)
}

// TestHedgeStormMem: a -race storm on memdrv rails — hundreds of
// messages with a near-zero stagger while one rail's completions are
// held and released round by round, so winners, losers, cancellations
// and timer fires interleave freely; then one rail dies and traffic
// continues unhedged. Zero buffer leases may remain.
func TestHedgeStormMem(t *testing.T) {
	leases := core.PoolStats().Live
	h := strategy.NewHedgeTuned(strategy.Must("balance"), time.Nanosecond, 50*time.Microsecond)
	p := newHedgePair(t, h)

	const rounds, batch = 60, 8
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			// Kill rail 1 between batches: hedging silently disables
			// (one rail left) and the storm keeps running.
			waitLeases(t, leases)
			p.drvsA[1].SetDown(true)
		}
		// Odd rounds hold rail 0's completions while the batch is in
		// flight: primaries stall there past the stagger, duplicates
		// race down rail 1, and the release races the cancellations.
		hold := round%2 == 1 && round < rounds/2
		if hold {
			p.drvsA[0].HoldCompletions()
		}
		var reqs []core.Request
		recvs := make([][]byte, batch)
		msgs := make([][]byte, batch)
		for i := 0; i < batch; i++ {
			msgs[i] = []byte(fmt.Sprintf("storm round %d msg %d payload", round, i))
			recvs[i] = make([]byte, len(msgs[i]))
			reqs = append(reqs, p.gateBA.Irecv(7, recvs[i]))
		}
		for i := 0; i < batch; i++ {
			reqs = append(reqs, p.gateAB.Isend(7, msgs[i]))
		}
		if hold {
			time.Sleep(300 * time.Microsecond) // let stagger timers fire
			p.drvsA[0].ReleaseCompletions()
		}
		for _, r := range reqs {
			var err error
			if _, ok := r.(*core.RecvReq); ok {
				err = p.engB.Wait(r)
			} else {
				err = p.engA.Wait(r)
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		for i := range msgs {
			if !bytes.Equal(recvs[i], msgs[i]) {
				t.Fatalf("round %d msg %d corrupted", round, i)
			}
		}
	}
	st := h.Stats()
	if st.Hedged == 0 {
		t.Fatal("storm never hedged")
	}
	waitLeases(t, leases)
}

// TestHedgeStormTCP: the same storm over real TCP rails — asynchronous
// writers, readers and completion events race the stagger timers for
// real — with one rail killed mid-storm. Zero buffer leases may remain.
func TestHedgeStormTCP(t *testing.T) {
	leases := core.PoolStats().Live
	h := strategy.NewHedgeTuned(strategy.Must("balance"), time.Nanosecond, 50*time.Microsecond)
	engA := core.New(core.Config{Strategy: h})
	engB := core.New(core.Config{Strategy: strategy.Must("balance")})
	defer engA.Close()
	defer engB.Close()
	gateAB := engA.NewGate("B")
	gateBA := engB.NewGate("A")
	conns := make([][2]net.Conn, 2)
	for i := range conns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dialed := make(chan net.Conn, 1)
		go func() {
			c, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				panic(err)
			}
			dialed <- c
		}()
		accepted, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		conns[i] = [2]net.Conn{accepted, <-dialed}
		gateAB.AddRail(tcpdrv.New(conns[i][0], tcpdrv.Options{}))
		gateBA.AddRail(tcpdrv.New(conns[i][1], tcpdrv.Options{}))
	}

	const rounds, batch = 40, 8
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			// Quiesce (leases back to baseline means nothing is in
			// flight), kill rail 1, and wait for both ends to observe
			// the failure so no fresh packet races onto the dying rail.
			waitLeases(t, leases)
			conns[1][0].Close()
			conns[1][1].Close()
			deadline := time.Now().Add(10 * time.Second)
			for gateAB.UpRails() != 1 || gateBA.UpRails() != 1 {
				if !time.Now().Before(deadline) {
					t.Fatal("rail death not observed on both ends")
				}
				time.Sleep(time.Millisecond)
			}
		}
		var sends, recvs []core.Request
		bufs := make([][]byte, batch)
		msgs := make([][]byte, batch)
		for i := 0; i < batch; i++ {
			msgs[i] = []byte(fmt.Sprintf("tcp storm round %d msg %d", round, i))
			bufs[i] = make([]byte, len(msgs[i]))
			recvs = append(recvs, gateBA.Irecv(8, bufs[i]))
		}
		for i := 0; i < batch; i++ {
			sends = append(sends, gateAB.Isend(8, msgs[i]))
		}
		for _, r := range sends {
			if err := engA.Wait(r); err != nil {
				t.Fatalf("round %d send: %v", round, err)
			}
		}
		for _, r := range recvs {
			if err := engB.Wait(r); err != nil {
				t.Fatalf("round %d recv: %v", round, err)
			}
		}
		for i := range msgs {
			if !bytes.Equal(bufs[i], msgs[i]) {
				t.Fatalf("round %d msg %d corrupted", round, i)
			}
		}
	}
	waitLeases(t, leases)
}

// TestSplitDynAdaptiveFreshRailPrior: a rail with no estimator samples
// (freshly added to its gate) must still be offered its
// profile-prior share of a striped body — adaptivity must not starve a
// rail out of the very samples it needs to earn a share.
func TestSplitDynAdaptiveFreshRailPrior(t *testing.T) {
	s := strategy.Must("split-dyn-adaptive")
	b, rails := fixture(t, s, myriProf(), quadProf())
	// Rail 0 has a measured history at twice its declared bandwidth;
	// rail 1 is fresh — its weight must fall back to the 850 MB/s prior.
	for i := 0; i < 64; i++ {
		rails[0].Estimator().Observe(1<<20, 436907) // 1 MiB at 2400 MB/s
	}
	n := 2 << 20
	u := seg(n, 0)
	s.Submit(b, u)
	if p := s.Schedule(b, rails[0]); p == nil || p.Hdr.Kind != core.KRTS {
		t.Fatalf("no rendezvous: %v", p)
	}
	b.Grant(u)
	c := s.Schedule(b, rails[1])
	if c == nil {
		t.Fatal("fresh rail starved: scheduled nothing")
	}
	want := float64(n) * 850 / (2400 + 850)
	got := float64(len(c.Payload))
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("fresh rail bite %d, want ~%.0f (profile-prior share)", len(c.Payload), want)
	}
}
