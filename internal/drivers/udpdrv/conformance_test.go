package udpdrv

import (
	"net"
	"testing"
	"time"

	"newmad/internal/drivers/drvtest"
	"newmad/internal/relnet"
)

// udpSockets builds two loopback UDP sockets aimed at each other.
func udpSockets(t *testing.T) (ca, cb *net.UDPConn, pa, pb *net.UDPAddr) {
	t.Helper()
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	ca, err := net.ListenUDP("udp", lo)
	if err != nil {
		t.Fatalf("listen A: %v", err)
	}
	cb, err = net.ListenUDP("udp", lo)
	if err != nil {
		_ = ca.Close()
		t.Fatalf("listen B: %v", err)
	}
	return ca, cb, ca.LocalAddr().(*net.UDPAddr), cb.LocalAddr().(*net.UDPAddr)
}

// udpRelCfg keeps recovery fast over the loopback: kernel-buffer drops
// under burst are expected and must be retransmitted promptly.
func udpRelCfg() relnet.Config {
	return relnet.Config{RTO: 2 * time.Millisecond, RetryBudget: 6}
}

// TestDriverConformance runs the full driver contract suite against the
// UDP driver: real sockets, reliability from relnet. Breaking the link
// closes A's socket under the reader, which must surface as exactly one
// asynchronous failure.
func TestDriverConformance(t *testing.T) {
	drvtest.Run(t, drvtest.Harness{
		New: func(t *testing.T) drvtest.Pair {
			ca, cb, aa, ab := udpSockets(t)
			da := New(ca, ab, Options{Rel: udpRelCfg()})
			db := New(cb, aa, Options{Rel: udpRelCfg()})
			return drvtest.Pair{
				A: da, B: db,
				Break: func() { _ = ca.Close() },
				Flap: func() {
					_ = ca.Close()
					_ = cb.Close()
				},
			}
		},
	})
}

// TestLossyConformance runs the lossy-transport contract with fault
// injectors between the reliability layer and the sockets, on top of
// whatever loss the kernel itself adds under burst.
func TestLossyConformance(t *testing.T) {
	drvtest.RunLossy(t, drvtest.LossyHarness{
		New: func(t *testing.T) drvtest.LossyPair {
			ca, cb, aa, ab := udpSockets(t)
			ta := NewTransport(ca, ab, DefaultProfile())
			tb := NewTransport(cb, aa, DefaultProfile())
			fa, fb := relnet.NewFlaky(ta), relnet.NewFlaky(tb)
			da, db := relnet.Wrap(fa, udpRelCfg()), relnet.Wrap(fb, udpRelCfg())
			ta.Start()
			tb.Start()
			return drvtest.LossyPair{
				A: da, B: db,
				FlakyA: fa, FlakyB: fb,
				StatsA: da.Stats, StatsB: db.Stats,
			}
		},
	})
}
