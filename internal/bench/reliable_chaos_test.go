package bench

import (
	"bytes"
	"context"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/relnet"
	"newmad/internal/simnet"
	"newmad/internal/simnet/chaos"
	"newmad/internal/simnet/topo"
	"newmad/internal/strategy"
)

// Reliable-rail chaos acceptance: with ClusterConfig.Reliable the
// relnet layer must turn silent packet loss from a guaranteed failure
// (raw rails: receiver latches down, sender times out) into completed
// iterations with measured retransmission overhead — and when loss is
// total, the retry budget must fail the rail loudly so the split
// strategies can fail over.

func reliableCfg() ClusterConfig {
	return ClusterConfig{Strategy: splitStrat, Reliable: true}
}

// lossScenario is the ext-chaos figures' loss-20% entry, so the tests
// exercise exactly what the figures run.
func lossScenario() chaosScenario { return scenario("loss-20%", chaosAt) }

// TestChaosLossSurvivableOnReliableRails pins the tentpole payoff:
// under 20% loss every collective AND the two-rail split completes at
// least one iteration on relnet-wrapped rails — no zero-survivor rows —
// and the completions were paid for with actual retransmissions.
func TestChaosLossSurvivableOnReliableRails(t *testing.T) {
	// Loss on every class from the first packet: unlike the figure
	// schedule (which waits for steady state at chaosAt, a window short
	// collective runs can finish before, and which spares the Quadrics
	// rail as a failover target), every operation runs lossy with
	// nowhere to hide.
	sc := scenario("loss-all-20%", 0)
	for _, op := range chaosOps {
		op := op
		t.Run(op.Name, func(t *testing.T) {
			run := runChaos(chaosTestTopo, reliableCfg(), sc, op, 4<<10, 3)
			for _, err := range run.Errs {
				wantChaosErr(t, err)
			}
			if len(run.Makespans) == 0 {
				t.Fatalf("no iteration survived 20%% loss on reliable rails: errs %v", run.Errs)
			}
			if run.Retransmits == 0 {
				t.Error("iterations completed under loss with zero retransmissions: the schedule injected nothing")
			}
		})
	}
}

// TestChaosLossZeroesOutRawRails pins the contrast the figure docs
// describe: the same loss schedule on RAW rails leaves the split
// transfer with no surviving iterations (a 2 MiB striped transfer
// cannot dodge 20% per-packet loss), every failure loud.
func TestChaosLossZeroesOutRawRails(t *testing.T) {
	run := runChaos(chaosPairTopo, ClusterConfig{Strategy: splitStrat}, lossScenario(), chaosOpNamed(splitXfer), 2<<20, 3)
	if len(run.Makespans) != 0 {
		t.Skipf("raw rails survived loss %d times; contrast not observable at this size", len(run.Makespans))
	}
	if len(run.Errs) == 0 {
		t.Fatal("raw rails neither completed nor failed under loss")
	}
	for _, err := range run.Errs {
		wantChaosErr(t, err)
	}
	if run.Retransmits != 0 {
		t.Fatalf("raw rails reported %d retransmits", run.Retransmits)
	}
}

// TestChaosBlackholeExhaustsAndFailsOver pins retry-budget exhaustion
// as a failover trigger: total loss on the Myri rail must burn the
// (small) retry budget, fail that rail loudly, and let dynamic
// re-splitting finish later transfers on the surviving Quadrics rail.
func TestChaosBlackholeExhaustsAndFailsOver(t *testing.T) {
	blackhole := chaosScenario{
		Name: "blackhole-myri",
		Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("blackhole-myri")
			eachLink(top, 0, func(a, b *simnet.NIC) { s.DropOnLink(chaosAt, chaosHold, 1.0, a, b) })
			return s
		},
	}
	cfg := ClusterConfig{
		Strategy: func() core.Strategy { return strategy.Must("split-dyn") },
		Reliable: true,
		Rel:      relnet.Config{RTO: 2 * time.Millisecond, RetryBudget: 3},
	}
	run := runChaos(chaosPairTopo, cfg, blackhole, chaosOpNamed(splitXfer), 1<<20, 6)
	for _, err := range run.Errs {
		wantChaosErr(t, err)
	}
	if len(run.Makespans) == 0 {
		t.Fatalf("no split transfer survived the blackholed rail: errs %v", run.Errs)
	}
	if len(run.Errs) == 0 {
		t.Fatal("blackhole injected no faults: retry budget never exhausted")
	}
}

// TestReliableRailsLeaveNoPhantomTimers pins the cancellable-timer fix
// at cluster scale: a clean reliable-rail run whose RTO is an hour must
// finish at a virtual time nowhere near that RTO — stopped retransmit
// timers are discarded without advancing the clock, so abandoned
// deadlines cannot inflate makespans.
func TestReliableRailsLeaveNoPhantomTimers(t *testing.T) {
	w := des.NewWorld()
	top := chaosPairTopo(w)
	c := ClusterFromTopo(top, ClusterConfig{
		Strategy: splitStrat,
		Reliable: true,
		Rel:      relnet.Config{RTO: time.Hour},
	})
	const size = 1 << 20
	want := bytes.Repeat([]byte{0xA5}, size)
	var got []byte
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		ctx := WithSimTimeout(context.Background(), p, chaosOpTimeout)
		switch comm.Rank() {
		case 0:
			if err := comm.SendCtx(ctx, 1, 9, want); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			buf := make([]byte, size)
			if _, err := comm.RecvCtx(ctx, 0, 9, buf); err != nil {
				t.Errorf("recv: %v", err)
			}
			got = buf
		}
	})
	w.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("transfer over reliable rails corrupted data")
	}
	if limit := des.FromDuration(time.Second); w.Now() >= limit {
		t.Fatalf("world ended at %v: phantom retransmit-timer wakeups advanced the clock", w.Now().Duration())
	}
}

// TestReliableSplitCompletesUnderLossWithStats drives the acceptance
// transfer: a 2 MiB split across a tcp-class and quadrics-class rail
// pair under 20% loss completes every iteration on reliable rails, and
// the protocol counters show both the loss (retransmits) and the
// recovery (more segments sent than a clean run would need).
func TestReliableSplitCompletesUnderLossWithStats(t *testing.T) {
	run := runChaos(chaosPairTopo, reliableCfg(), lossScenario(), chaosOpNamed(splitXfer), 2<<20, 4)
	for _, err := range run.Errs {
		wantChaosErr(t, err)
	}
	if len(run.Makespans) < 2 {
		t.Fatalf("only %d/4 split iterations survived 20%% loss on reliable rails: errs %v",
			len(run.Makespans), run.Errs)
	}
	if run.Retransmits == 0 {
		t.Fatal("split survived loss without any retransmissions")
	}
}
