package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/simnet"
	"newmad/internal/simnet/chaos"
	"newmad/internal/simnet/topo"
	"newmad/internal/strategy"
)

// Chaos benchmarks: collectives and two-rail split transfers running
// while a fault schedule perturbs the platform — links flap, bandwidth
// degrades, packets drop, racks partition. Unlike the clean figures
// (mustColl), operations here are allowed to fail: the invariant is
// that every operation either completes correctly or fails loudly with
// a rail-failure error — never hangs — which the *Ctx operations
// guarantee by carrying virtual-time deadlines. Makespans of the
// iterations that do complete yield p50/p99 degradation curves.

const (
	// chaosAt is when the first fault of every scenario fires: late
	// enough that the run is in steady state, early enough that most
	// iterations feel it.
	chaosAt = 50 * time.Microsecond
	// chaosHold keeps reversible faults applied for the whole run.
	chaosHold = time.Second
	// chaosOpTimeout bounds every operation in virtual time. An orphaned
	// receive (its bytes were dropped on a link that then died) fails
	// with context.DeadlineExceeded instead of deadlocking the DES.
	chaosOpTimeout = 100 * time.Millisecond
)

// chaosScenario is a named fault schedule built against a topology.
type chaosScenario struct {
	Name  string
	Build func(top *topo.Topology) *chaos.Schedule
}

// eachLink invokes fn for both endpoints of every class-k link; k == -1
// selects all classes.
func eachLink(top *topo.Topology, k int, fn func(a, b *simnet.NIC)) {
	for i := 0; i < top.Size(); i++ {
		for j := i + 1; j < top.Size(); j++ {
			for c := 0; c < top.Classes(); c++ {
				if k >= 0 && c != k {
					continue
				}
				a, b := top.LinkNICs(i, j, c)
				fn(a, b)
			}
		}
	}
}

// chaosScenarios returns the figure scenarios, ordered; the X axis of
// the ext-chaos figures indexes this list. Rail-targeted faults hit
// class 0 (the Myri-10G rail) so the Quadrics rail survives as the
// failover target; platform-wide faults hit every class.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{Name: "baseline", Build: func(*topo.Topology) *chaos.Schedule {
			return chaos.NewSchedule("baseline")
		}},
		{Name: "degrade-25%", Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("degrade-25%")
			eachLink(top, -1, func(a, b *simnet.NIC) { s.DegradeLink(chaosAt, chaosHold, 0.25, a, b) })
			return s
		}},
		{Name: "jitter-30%", Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("jitter-30%")
			eachLink(top, -1, func(a, b *simnet.NIC) { s.JitterLink(chaosAt, chaosHold, 0.3, a, b) })
			return s
		}},
		{Name: "loss-20%", Build: func(top *topo.Topology) *chaos.Schedule {
			// What loss does depends on the rail stack. On RAW rails a
			// dropped arrival latches the RECEIVING side's rail down
			// (simdrv reports RailDown once), but the sender of a
			// silently lossy link never learns — there is no retransmit
			// — so iterations that lose a packet fail loudly on their
			// virtual-time deadline; that asymmetry is unavoidable on a
			// one-way lossy datagram link, and a zero point on a raw
			// loss curve reads "no iteration survived". On RELIABLE
			// rails (ClusterConfig.Reliable — what the figures run) the
			// relnet layer retransmits in virtual time: iterations
			// complete, and the p50/p99 spread above baseline is the
			// measured retransmission overhead.
			s := chaos.NewSchedule("loss-20%")
			eachLink(top, 0, func(a, b *simnet.NIC) { s.DropOnLink(chaosAt, chaosHold, 0.20, a, b) })
			return s
		}},
		{Name: "rail-down", Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("rail-down")
			eachLink(top, 0, func(a, b *simnet.NIC) { s.DownLink(chaosAt, a, b) })
			return s
		}},
	}
}

// partitionScenario severs racks ra and rb for window starting at
// chaosAt. Engines never resurrect a failed rail, so cross-rack gates
// stay dead after the window: every later cross-rack operation must
// fail loudly, which the chaos acceptance tests pin down. Not part of
// the figure scenarios (it has no completed-makespan curve).
func partitionScenario(ra, rb int, window time.Duration) chaosScenario {
	return chaosScenario{
		Name: "partition",
		Build: func(top *topo.Topology) *chaos.Schedule {
			return chaos.NewSchedule("partition").
				Partition(chaosAt, window, top.CutNICs(ra, rb)...)
		},
	}
}

// chaosOp is one operation measured under chaos. Run must be called by
// EVERY rank on EVERY iteration even after a failure: the collective
// sequence numbers that pair operations across ranks only stay in
// lockstep if no rank skips a call.
type chaosOp struct {
	Name string
	Run  func(ctx context.Context, comm *mpl.Comm, size int) error
}

// chaosColls returns the eight collectives as chaos operations. size is
// the per-rank contribution in bytes (multiple of 8 for reductions).
func chaosColls() []chaosOp {
	return []chaosOp{
		{Name: "barrier", Run: func(ctx context.Context, c *mpl.Comm, _ int) error {
			return c.BarrierCtx(ctx)
		}},
		{Name: "bcast", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
			return c.BcastCtx(ctx, 0, make([]byte, size))
		}},
		{Name: "gather", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
			var recv []byte
			if c.Rank() == 0 {
				recv = make([]byte, size*c.Size())
			}
			return c.GatherCtx(ctx, 0, make([]byte, size), recv)
		}},
		{Name: "scatter", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
			var send []byte
			if c.Rank() == 0 {
				send = make([]byte, size*c.Size())
			}
			return c.ScatterCtx(ctx, 0, send, make([]byte, size))
		}},
		{Name: "reduce", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
			var recv []byte
			if c.Rank() == 0 {
				recv = make([]byte, size)
			}
			return c.ReduceCtx(ctx, 0, make([]byte, size), recv, mpl.OpSumInt64())
		}},
		{Name: "allreduce", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
			return c.AllreduceCtx(ctx, make([]byte, size), make([]byte, size), mpl.OpSumInt64())
		}},
		{Name: "allgather", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
			return c.AllgatherCtx(ctx, make([]byte, size), make([]byte, size*c.Size()))
		}},
		{Name: "alltoall", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
			return c.AlltoallCtx(ctx, make([]byte, size*c.Size()), make([]byte, size*c.Size()))
		}},
	}
}

// chaosSplitOp is a point-to-point transfer from rank 0 to rank 1,
// striped across both rails by the installed split strategy — the
// operation whose mid-transfer failover the split-dyn fix exists for.
func chaosSplitOp() chaosOp {
	const tag = 7
	return chaosOp{Name: "split-xfer", Run: func(ctx context.Context, c *mpl.Comm, size int) error {
		switch c.Rank() {
		case 0:
			return c.SendCtx(ctx, 1, tag, make([]byte, size))
		case 1:
			_, err := c.RecvCtx(ctx, 0, tag, make([]byte, size))
			return err
		default:
			return nil
		}
	}}
}

// chaosIter is one rank's view of one iteration.
type chaosIter struct {
	start, done des.Time
	err         error
}

// chaosRun is the outcome of running one operation repeatedly under a
// fault schedule.
type chaosRun struct {
	// Makespans holds the virtual-time makespan, in nanoseconds, of
	// every iteration ALL ranks completed cleanly (min start to max
	// done across ranks).
	Makespans []float64
	// Errs collects every per-rank, per-iteration failure.
	Errs []error
	// Retransmits totals the reliability-layer re-sends across all
	// rails (zero on raw-rail runs): the price paid for the completed
	// iterations above.
	Retransmits uint64
}

// runChaos builds a fresh cluster over build's topology per cfg (which
// chooses raw or relnet-wrapped rails), arms the scenario's fault
// schedule, and runs op iters times on every rank, each iteration
// fenced by a barrier and bounded by a virtual-time deadline. The world
// runs to completion: a hang would surface as a DES deadlock panic, a
// lost completion as DeadlineExceeded.
func runChaos(build func(w *des.World) *topo.Topology, cfg ClusterConfig,
	sc chaosScenario, op chaosOp, size, iters int) chaosRun {
	w := des.NewWorld()
	top := build(w)
	c := ClusterFromTopo(top, cfg)
	rec := make([][]chaosIter, c.Size())
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		rows := make([]chaosIter, iters)
		rec[comm.Rank()] = rows
		for it := 0; it < iters; it++ {
			// The fence and the operation run unconditionally on every
			// rank (see chaosOp) so collective tags stay paired.
			fErr := comm.BarrierCtx(WithSimTimeout(context.Background(), p, chaosOpTimeout))
			start := p.Now()
			oErr := op.Run(WithSimTimeout(context.Background(), p, chaosOpTimeout), comm, size)
			if fErr == nil {
				fErr = oErr
			}
			rows[it] = chaosIter{start: start, done: p.Now(), err: fErr}
		}
	})
	sc.Build(top).Arm(w)
	w.Run()

	run := chaosRun{Retransmits: c.Retransmits()}
	for it := 0; it < iters; it++ {
		ok := true
		start, done := des.Time(math.MaxInt64), des.Time(0)
		for rank := range rec {
			r := rec[rank][it]
			if r.err != nil {
				run.Errs = append(run.Errs, r.err)
				ok = false
			}
			if r.start < start {
				start = r.start
			}
			if r.done > done {
				done = r.done
			}
		}
		if ok {
			run.Makespans = append(run.Makespans, float64(done-start))
		}
	}
	return run
}

// percentile returns the p-quantile (0 < p <= 1) of xs by the
// nearest-rank method, or 0 when no iteration completed.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// chaosCollTopo is the collective chaos testbed: two racks of four over
// the paper's two-rail platform, 2:1 oversubscribed across the rack
// boundary.
func chaosCollTopo(w *des.World) *topo.Topology {
	return topo.New().
		Rack(4).
		Rack(4).
		Link(simnet.Myri10G()).
		Link(simnet.QsNetII()).
		Oversubscribe(2).
		Build(w)
}

// chaosPairTopo is the split-transfer testbed: two hosts, two rails.
func chaosPairTopo(w *des.World) *topo.Topology {
	return topo.New().
		Rack(2).
		Link(simnet.Myri10G()).
		Link(simnet.QsNetII()).
		Build(w)
}

// chaosSeries measures op under every scenario and returns the p50 and
// p99 makespan curves (ns), X indexing the scenario list.
func chaosSeries(build func(w *des.World) *topo.Topology, cfg ClusterConfig,
	name string, op chaosOp, size, iters int) (p50, p99 Series) {
	p50 = Series{Name: name + " p50"}
	p99 = Series{Name: name + " p99"}
	for x, sc := range chaosScenarios() {
		run := runChaos(build, cfg, sc, op, size, iters)
		p50.Points = append(p50.Points, Point{X: x, Y: percentile(run.Makespans, 0.50)})
		p99.Points = append(p99.Points, Point{X: x, Y: percentile(run.Makespans, 0.99)})
	}
	return p50, p99
}

// chaosXLabel names the scenario axis shared by the ext-chaos figures.
func chaosXLabel() string {
	names := ""
	for i, sc := range chaosScenarios() {
		if i > 0 {
			names += ", "
		}
		names += fmt.Sprintf("%d=%s", i, sc.Name)
	}
	return "fault scenario (" + names + ")"
}

// ExtChaosColl builds the collective chaos figure: the eight mpl
// collectives on two oversubscribed racks (8 ranks, two rails), p50 and
// p99 makespan under each fault scenario. Rails run under the relnet
// reliability layer, so the loss scenario completes by retransmission
// (its spread over baseline is the retransmit overhead) instead of
// zeroing out. Iterations that fail under a fault (loudly —
// rail-failure errors or virtual-time deadlines) are excluded from the
// percentiles; a zero point means no iteration completed.
func ExtChaosColl(q Quality) *Figure {
	const size = 32 << 10
	cfg := ClusterConfig{
		Strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
		Reliable: true,
	}
	fig := &Figure{
		ID:     "ext-chaos-coll",
		Title:  "Collectives under fault injection, 2x4 ranks, reliable rails (makespan)",
		XLabel: chaosXLabel(), YLabel: "us",
	}
	for _, op := range chaosColls() {
		p50, p99 := chaosSeries(chaosCollTopo, cfg, op.Name, op, size, q.Warmup+q.Iters)
		fig.Series = append(fig.Series, p50, p99)
	}
	return fig
}

// ExtChaosSplit builds the split-transfer chaos figure: a 2 MiB
// transfer striped across both rails, static split versus dynamic
// re-splitting on reliable rails, p50 and p99 makespan under each fault
// scenario. The rail-down scenarios are where split-dyn earns its keep:
// surviving iterations re-split the remainder over the live rail
// instead of handing the dead rail its share. A raw-rail contrast
// series rides along so the loss column keeps showing the asymmetry
// reliability removes: raw rails zero out under silent loss (the
// receiver latches down, the sender never learns), reliable rails
// complete with measured retransmit overhead.
func ExtChaosSplit(q Quality) *Figure {
	const size = 2 << 20
	fig := &Figure{
		ID:     "ext-chaos-split",
		Title:  "Two-rail split transfer under fault injection (makespan)",
		XLabel: chaosXLabel(), YLabel: "us",
	}
	split := func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }
	for _, s := range []struct {
		name string
		cfg  ClusterConfig
	}{
		{"split", ClusterConfig{Strategy: split, Reliable: true}},
		{"split-dyn", ClusterConfig{Strategy: func() core.Strategy { return strategy.Must("split-dyn") }, Reliable: true}},
		{"split-raw", ClusterConfig{Strategy: split}},
	} {
		p50, p99 := chaosSeries(chaosPairTopo, s.cfg, s.name, chaosSplitOp(), size, q.Warmup+q.Iters)
		fig.Series = append(fig.Series, p50, p99)
	}
	return fig
}
