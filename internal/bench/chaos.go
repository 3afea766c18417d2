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

// Chaos runs: collectives and two-rail split transfers running while a
// fault schedule perturbs the platform — links flap, bandwidth
// degrades, packets drop, racks partition. Unlike the clean collective
// figures (mustColl), operations here are allowed to fail: the
// invariant is that every operation either completes correctly or fails
// loudly with a rail-failure error — never hangs — which the *Ctx
// operations guarantee by carrying virtual-time deadlines. Makespans of
// the iterations that do complete yield p50/p99 curves.

const (
	// chaosAt is when the faults of the ext-chaos figures fire: late
	// enough that the run is in steady state, early enough that most
	// iterations feel it. The hedge and adaptive figures and the perf
	// report arm theirs at 0, so every iteration runs under the fault.
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

// faults is the scenario catalogue; figures and the perf report pick
// rows by name. Rail-targeted faults hit class 0 (the Myri-10G rail) so
// the Quadrics rail survives as the failover target; platform-wide
// faults hit every class (-1).
var faults = []struct {
	name  string
	class int
	arm   func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC)
}{
	{"baseline", -1, nil},
	{"degrade-25%", -1, func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC) {
		s.DegradeLink(at, chaosHold, 0.25, a, b)
	}},
	{"jitter-30%", -1, func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC) {
		s.JitterLink(at, chaosHold, 0.3, a, b)
	}},
	// What loss does depends on the rail stack. On RAW rails a dropped
	// arrival latches the RECEIVING side's rail down (simdrv reports
	// RailDown once), but the sender of a silently lossy link never
	// learns — there is no retransmit — so iterations that lose a packet
	// fail loudly on their virtual-time deadline, and a zero point on a
	// raw loss curve reads "no iteration survived". On RELIABLE rails
	// (ClusterConfig.Reliable) the relnet layer retransmits in virtual
	// time: iterations complete, and the p50/p99 spread above baseline
	// is the measured retransmission overhead.
	{"loss-20%", 0, func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC) {
		s.DropOnLink(at, chaosHold, 0.20, a, b)
	}},
	{"rail-down", 0, func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC) {
		s.DownLink(at, a, b)
	}},
	// Asymmetric: a static split keeps handing rail 0 its declared
	// share — now 4x too big — while an adaptive split re-weights from
	// observed completions.
	{"degrade-rail0-25%", 0, func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC) {
		s.DegradeLink(at, chaosHold, 0.25, a, b)
	}},
	{"loss-all-10%", -1, func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC) {
		s.DropOnLink(at, chaosHold, 0.10, a, b)
	}},
	{"loss-all-20%", -1, func(s *chaos.Schedule, at time.Duration, a, b *simnet.NIC) {
		s.DropOnLink(at, chaosHold, 0.20, a, b)
	}},
}

// scenario returns the named catalogue entry with its faults firing at
// at; it panics on an unknown name.
func scenario(name string, at time.Duration) chaosScenario {
	for _, f := range faults {
		if f.name != name {
			continue
		}
		return chaosScenario{Name: name, Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule(name)
			if f.arm != nil {
				eachLink(top, f.class, func(a, b *simnet.NIC) { f.arm(s, at, a, b) })
			}
			return s
		}}
	}
	panic(fmt.Sprintf("bench: unknown fault scenario %q", name))
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

// partitionScenario severs racks ra and rb for window starting at
// chaosAt. Engines never resurrect a failed rail, so cross-rack gates
// stay dead after the window: every later cross-rack operation must
// fail loudly, which the chaos acceptance tests pin down. Not in the
// catalogue (it has no completed-makespan curve).
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

// splitXfer names the point-to-point chaos op.
const splitXfer = "split-xfer"

// chaosOps are the eight collectives, then the split transfer. size is
// the per-rank contribution in bytes (multiple of 8 for reductions).
var chaosOps = []chaosOp{
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
	// A transfer from rank 0 to rank 1, striped across the rails by
	// the installed split strategy: the operation whose mid-transfer
	// failover split-dyn exists for.
	{Name: splitXfer, Run: func(ctx context.Context, c *mpl.Comm, size int) error {
		const tag = 7
		switch c.Rank() {
		case 0:
			return c.SendCtx(ctx, 1, tag, make([]byte, size))
		case 1:
			_, err := c.RecvCtx(ctx, 0, tag, make([]byte, size))
			return err
		default:
			return nil
		}
	}},
}

// chaosOpNamed returns the chaosOps entry called name.
func chaosOpNamed(name string) chaosOp {
	for _, op := range chaosOps {
		if op.Name == name {
			return op
		}
	}
	panic(fmt.Sprintf("bench: unknown chaos op %q", name))
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
	// Hedge sums the counters of every hedging strategy in the run.
	Hedge strategy.HedgeStats
}

// runChaos builds a fresh cluster over build's topology per cfg (which
// chooses raw or relnet-wrapped rails), arms the scenario's fault
// schedule, and runs op iters times on every rank, each iteration
// fenced by a barrier and bounded by a virtual-time deadline. The world
// runs to completion: a hang would surface as a DES deadlock panic, a
// lost completion as DeadlineExceeded.
func runChaos(build func(w *des.World) *topo.Topology, cfg ClusterConfig,
	sc chaosScenario, op chaosOp, size, iters int) chaosRun {
	var hedges []*strategy.Hedge
	mk := cfg.Strategy
	cfg.Strategy = func() core.Strategy {
		s := mk()
		if h, ok := s.(*strategy.Hedge); ok {
			hedges = append(hedges, h)
		}
		return s
	}
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
	for _, h := range hedges {
		s := h.Stats()
		run.Hedge.Eligible += s.Eligible
		run.Hedge.Hedged += s.Hedged
		run.Hedge.Cancelled += s.Cancelled
		run.Hedge.PrimaryBytes += s.PrimaryBytes
		run.Hedge.DupBytes += s.DupBytes
	}
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

// mesh declares racks of hosts (sizes in racks) joined by one link per
// rail, inter-rack links oversubscribed by oversub when > 1.
func mesh(w *des.World, rails []simnet.NICParams, oversub float64, racks ...int) *topo.Topology {
	b := topo.New()
	for _, n := range racks {
		b.Rack(n)
	}
	for _, np := range rails {
		b.Link(np)
	}
	if oversub > 1 {
		b.Oversubscribe(oversub)
	}
	return b.Build(w)
}
