package simdrv

import (
	"testing"

	"newmad/internal/des"
	"newmad/internal/drivers/drvtest"
	"newmad/internal/relnet"
	"newmad/internal/simnet"
)

// simLossyWorld builds a connected simulated pair with fault injectors
// between the reliability layers and the NICs. Each side runs on its own
// host's clock, so retransmit timers land on the world's cancellable
// timer API and recovery runs entirely in virtual time.
func simLossyWorld() (w *des.World, p drvtest.LossyPair) {
	w = des.NewWorld()
	ha := simnet.NewHost(w, "A", simnet.Opteron())
	hb := simnet.NewHost(w, "B", simnet.Opteron())
	na := ha.NewNIC(simnet.Myri10G())
	nb := hb.NewNIC(simnet.Myri10G())
	simnet.Connect(na, nb)
	fa, fb := relnet.NewFlaky(NewTransport(na, 0)), relnet.NewFlaky(NewTransport(nb, 0))
	da := relnet.Wrap(fa, relnet.Config{Clock: ha, RetryBudget: 4})
	db := relnet.Wrap(fb, relnet.Config{Clock: hb, RetryBudget: 4})
	return w, drvtest.LossyPair{
		A: da, B: db, Pump: w.Run,
		FlakyA: fa, FlakyB: fb,
		StatsA: da.Stats, StatsB: db.Stats,
	}
}

// TestLossyConformance runs the lossy-transport contract against the
// reliability layer over simulated NICs: the virtual-clock
// instantiation of relnet, where RTO timers are DES events.
func TestLossyConformance(t *testing.T) {
	drvtest.RunLossy(t, drvtest.LossyHarness{
		New: func(t *testing.T) drvtest.LossyPair {
			_, p := simLossyWorld()
			return p
		},
	})
}

// TestReliableDriverConformance runs the full driver contract suite
// against relnet-wrapped simulated rails (the configuration the chaos
// benchmarks use). A downed NIC must still surface as exactly one
// RailDown — through the transport failure callback, not by burning
// the retry budget.
func TestReliableDriverConformance(t *testing.T) {
	drvtest.Run(t, drvtest.Harness{
		New: func(t *testing.T) drvtest.Pair {
			w := des.NewWorld()
			ha := simnet.NewHost(w, "A", simnet.Opteron())
			hb := simnet.NewHost(w, "B", simnet.Opteron())
			na := ha.NewNIC(simnet.Myri10G())
			nb := hb.NewNIC(simnet.Myri10G())
			simnet.Connect(na, nb)
			linkDown := func() {
				na.SetDown(true)
				nb.SetDown(true)
			}
			return drvtest.Pair{
				A:     NewReliable(na, relnet.Config{}),
				B:     NewReliable(nb, relnet.Config{}),
				Pump:  w.Run,
				Break: linkDown,
				Flap:  linkDown,
			}
		},
	})
}
