package bench

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/simnet"
	"newmad/internal/simnet/topo"
	"newmad/internal/strategy"
)

// Chaos acceptance: under every fault scenario, every collective and
// the two-rail split transfer either completes with correct results or
// fails loudly with a rail-failure error — never hangs. A hang would
// surface as a DES deadlock panic (every parked rank holds a
// virtual-time deadline timer, so the world can always advance).

// chaosTestTopo is a small cross-rack testbed: two racks of two, both
// rail classes, so partitions and rail faults have cross-traffic to
// bite.
func chaosTestTopo(w *des.World) *topo.Topology {
	return topo.New().
		Rack(2).
		Rack(2).
		Link(simnet.Myri10G()).
		Link(simnet.QsNetII()).
		Build(w)
}

// chaosPairTopo is the split-transfer testbed: two hosts, two rails.
func chaosPairTopo(w *des.World) *topo.Topology { return mesh(w, bothRails(), 0, 2) }

func splitStrat() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }

// wantChaosErr fails the test unless err is one of the loud,
// well-typed outcomes a faulted operation may have.
func wantChaosErr(t *testing.T, err error) {
	t.Helper()
	for _, allowed := range []error{
		core.ErrRailDown, core.ErrMsgAborted, core.ErrPeerRecvGone,
		core.ErrCanceled, context.DeadlineExceeded,
	} {
		if errors.Is(err, allowed) {
			return
		}
	}
	t.Errorf("operation failed with unexpected error: %v", err)
}

// TestChaosOpsCompleteOrFailLoudly runs the full matrix: every figure
// scenario plus a rack partition, times every collective plus the split
// transfer. runChaos returning at all proves no operation hung.
func TestChaosOpsCompleteOrFailLoudly(t *testing.T) {
	var scenarios []chaosScenario
	for _, name := range chaosScenarios {
		scenarios = append(scenarios, scenario(name, chaosAt))
	}
	scenarios = append(scenarios, partitionScenario(0, 1, 50*time.Millisecond))
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, op := range chaosOps {
				op := op
				t.Run(op.Name, func(t *testing.T) {
					run := runChaos(chaosTestTopo, ClusterConfig{Strategy: splitStrat}, sc, op, 4<<10, 3)
					for _, err := range run.Errs {
						wantChaosErr(t, err)
					}
					if sc.Name == "baseline" {
						if len(run.Errs) != 0 {
							t.Fatalf("baseline run failed: %v", run.Errs)
						}
						if len(run.Makespans) != 3 {
							t.Fatalf("baseline completed %d/3 iterations", len(run.Makespans))
						}
					}
				})
			}
		})
	}
}

// TestChaosPartitionBites pins fault observability: a partition held
// over the whole run must make cross-rack collectives fail — if every
// iteration sails through, the schedule wasn't injecting anything.
func TestChaosPartitionBites(t *testing.T) {
	sc := partitionScenario(0, 1, time.Second)
	run := runChaos(chaosTestTopo, ClusterConfig{Strategy: splitStrat}, sc, chaosOpNamed("bcast"), 4<<10, 3)
	if len(run.Errs) == 0 {
		t.Fatal("partition injected no faults: every bcast iteration completed")
	}
	for _, err := range run.Errs {
		wantChaosErr(t, err)
	}
}

// TestChaosRailDownFailsOver pins failover: with the Myri rail downed
// mid-run, later split transfers must still complete — on the
// surviving Quadrics rail, hence strictly slower than the two-rail
// baseline — and deliver intact data.
func TestChaosRailDownFailsOver(t *testing.T) {
	split := chaosOpNamed(splitXfer)
	base := runChaos(chaosPairTopo, ClusterConfig{Strategy: splitStrat}, scenario("baseline", chaosAt), split, 2<<20, 4)
	down := runChaos(chaosPairTopo, ClusterConfig{Strategy: splitStrat}, scenario("rail-down", chaosAt), split, 2<<20, 4)
	if len(base.Makespans) != 4 || len(base.Errs) != 0 {
		t.Fatalf("baseline: %d makespans, errs %v", len(base.Makespans), base.Errs)
	}
	if len(down.Makespans) == 0 {
		t.Fatalf("no split transfer survived the rail loss: errs %v", down.Errs)
	}
	for _, err := range down.Errs {
		wantChaosErr(t, err)
	}
	if worst, ref := percentile(down.Makespans, 0.99), percentile(base.Makespans, 0.99); worst <= ref {
		t.Errorf("one-rail p99 %v not slower than two-rail baseline %v", worst, ref)
	}
}

// TestChaosSplitDataIntact verifies payload integrity end to end while
// the Myri rail dies mid-run: every receive that reports success must
// carry exactly the bytes sent, even when the chunk schedule failed
// over between rails.
func TestChaosSplitDataIntact(t *testing.T) {
	const size = 1 << 20
	const iters = 4
	w := des.NewWorld()
	top := chaosPairTopo(w)
	c := ClusterFromTopo(top, ClusterConfig{Strategy: func() core.Strategy { return strategy.Must("split-dyn") }})
	type res struct {
		err error
		got []byte
	}
	results := make([]res, iters)
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		for it := 0; it < iters; it++ {
			ctx := WithSimTimeout(context.Background(), p, chaosOpTimeout)
			fence := comm.BarrierCtx(ctx)
			want := bytes.Repeat([]byte{byte(it + 1)}, size)
			switch comm.Rank() {
			case 0:
				if fence != nil {
					results[it].err = fence
					continue
				}
				sctx := WithSimTimeout(context.Background(), p, chaosOpTimeout)
				if err := comm.SendCtx(sctx, 1, 3, want); err != nil {
					wantChaosErr(t, err)
				}
			case 1:
				if fence != nil {
					results[it].err = fence
					continue
				}
				buf := make([]byte, size)
				rctx := WithSimTimeout(context.Background(), p, chaosOpTimeout)
				_, err := comm.RecvCtx(rctx, 0, 3, buf)
				results[it] = res{err: err, got: buf}
			}
		}
	})
	scenario("rail-down", chaosAt).Build(top).Arm(w)
	w.Run()

	clean := 0
	for it, r := range results {
		if r.err != nil {
			wantChaosErr(t, r.err)
			continue
		}
		clean++
		want := bytes.Repeat([]byte{byte(it + 1)}, size)
		if !bytes.Equal(r.got, want) {
			t.Fatalf("iteration %d delivered corrupt data", it)
		}
	}
	if clean == 0 {
		t.Fatal("no iteration completed; failover never happened")
	}
}

// TestClusterFromTopoMatchesNewCluster pins the builder migration: the
// topology-built full mesh must expose the same shape as the
// hand-rolled one — gates everywhere off the diagonal, one rail and one
// retained NIC per class, and a seeded selector.
func TestClusterFromTopoMatchesNewCluster(t *testing.T) {
	top := topo.New().
		Rack(3).
		Link(simnet.Myri10G()).
		Link(simnet.QsNetII()).
		Build(des.NewWorld())
	tc := ClusterFromTopo(top, ClusterConfig{Strategy: splitStrat})
	hc := NewCluster(ClusterConfig{
		Nodes:    3,
		NICs:     []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()},
		Strategy: splitStrat,
	})
	for _, c := range []*Cluster{tc, hc} {
		if c.Size() != 3 {
			t.Fatalf("size %d", c.Size())
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i == j {
					if c.Gates[i][j] != nil || c.NICs[i][j] != nil {
						t.Fatal("diagonal populated")
					}
					continue
				}
				if c.Gates[i][j] == nil || len(c.Gates[i][j].Rails()) != 2 {
					t.Fatalf("gate (%d,%d) missing rails", i, j)
				}
				if len(c.NICs[i][j]) != 2 {
					t.Fatalf("NICs (%d,%d) not retained", i, j)
				}
			}
		}
	}
}
