package udpdrv

import (
	"context"
	"fmt"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/relnet"
	"newmad/internal/strategy"
)

// TestWindowFor pins the grant → window rule at Linux's default receive
// buffer, at that buffer doubled (a 4 MiB request capped by the default
// rmem_max), and at the 8 MiB a 4 MiB rmem_max grants.
func TestWindowFor(t *testing.T) {
	for _, c := range []struct{ grant, want int }{
		{212992, 6},
		{425984, 13},
		{8388608, relnet.DefaultWindow},
		{0, 1},
	} {
		if got := windowFor(c.grant); got != c.want {
			t.Errorf("windowFor(%d) = %d, want %d", c.grant, got, c.want)
		}
	}
}

// TestBareRailStream joins two engines by one bare udpdrv rail and
// streams 200 × 256 KiB, 2 in flight, byte-verified. A window larger
// than the receive socket's buffer drops datagrams on every burst, so
// the stream crawls on retransmit timeouts; sized to the buffer it
// finishes in a fraction of the deadline and retransmits almost nothing.
func TestBareRailStream(t *testing.T) {
	ca, cb, aa, ab := udpSockets(t)
	da := New(ca, ab, Options{})
	db := New(cb, aa, Options{})
	engA := core.New(core.Config{Strategy: strategy.NewFIFO(0)})
	engB := core.New(core.Config{Strategy: strategy.NewFIFO(0)})
	t.Cleanup(func() {
		engA.Close()
		engB.Close()
	})
	ga, gb := engA.NewGate("b"), engB.NewGate("a")
	ga.AddRail(da)
	gb.AddRail(db)

	const msgs, size, inFlight = 200, 256 << 10, 2
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	recvDone := make(chan error, 1)
	go func() {
		var bufs [inFlight][]byte
		var reqs [inFlight]*core.RecvReq
		for i := 0; i < msgs+inFlight; i++ {
			slot := i % inFlight
			if i >= inFlight {
				if err := engB.WaitCtx(ctx, reqs[slot]); err != nil {
					recvDone <- fmt.Errorf("receive %d: %w", i-inFlight, err)
					return
				}
				if j := mismatch(bufs[slot], i-inFlight); j >= 0 {
					recvDone <- fmt.Errorf("message %d corrupted at byte %d", i-inFlight, j)
					return
				}
			}
			if i < msgs {
				if bufs[slot] == nil {
					bufs[slot] = make([]byte, size)
				}
				reqs[slot] = gb.Irecv(uint32(i), bufs[slot])
			}
		}
		recvDone <- nil
	}()
	var bufs [inFlight][]byte
	var reqs [inFlight]*core.SendReq
	for i := 0; i < msgs+inFlight; i++ {
		slot := i % inFlight
		if i >= inFlight {
			if err := engA.WaitCtx(ctx, reqs[slot]); err != nil {
				t.Fatalf("send %d: %v (relnet %+v)", i-inFlight, err, da.Stats())
			}
		}
		if i < msgs {
			if bufs[slot] == nil {
				bufs[slot] = make([]byte, size)
			}
			fill(bufs[slot], i)
			reqs[slot] = ga.Isend(uint32(i), bufs[slot])
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("%v (relnet %+v)", err, da.Stats())
	}
	st := da.Stats()
	t.Logf("%d segments sent, %d retransmitted", st.SegsSent, st.Retransmits)
	if st.Retransmits*100 >= st.SegsSent {
		t.Fatalf("retransmitted %d of %d segments (≥ 1 %%): %+v", st.Retransmits, st.SegsSent, st)
	}
}

// fill writes message i's pattern into b.
func fill(b []byte, i int) {
	for j := range b {
		b[j] = byte(j*7 + i)
	}
}

// mismatch returns the first byte of b off message i's pattern, or -1.
func mismatch(b []byte, i int) int {
	for j := range b {
		if b[j] != byte(j*7+i) {
			return j
		}
	}
	return -1
}
