package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/mpl"
	"newmad/internal/simnet"
	"newmad/internal/simnet/chaos"
	"newmad/internal/simnet/topo"
	"newmad/internal/strategy"
)

// This file is the pinned performance trajectory: BuildPerfReport runs a
// fixed set of headline measurements and serializes them as a
// BENCH_<n>.json report checked in at the repo root, so every growth
// step leaves a comparable perf record behind. Three figure families:
//
//   - DES figures (pingpong latency, allreduce makespan) are virtual
//     time — fully deterministic, comparable across machines;
//   - wall-clock figures (multi-gate send throughput) depend on the
//     machine and are informational;
//   - allocation figures (allocs/op on the pooled hot paths) are
//     deterministic and carry budgets: a report whose measured allocs
//     exceed a budget is a regression, and nmad-bench -emit-json exits
//     nonzero.

// PerfSchema identifies the report layout. /2 added the loss_recovery
// family (reliable-rail split transfers under per-packet loss). /3
// added the shm_latency family (shared-memory rail pingpong and
// bandwidth against a TCP-loopback rail on the same host). /4 added the
// tail_latency family (hedged vs unhedged small sends under jitter and
// degradation) and the adaptive_split family (estimator-adaptive vs
// profile-static split weights).
const PerfSchema = "newmad-perf/4"

// LatencyPoint is one DES pingpong measurement.
type LatencyPoint struct {
	SizeBytes int     `json:"size_bytes"`
	HalfRTTNs float64 `json:"half_rtt_ns"`
}

// MakespanPoint is one DES collective measurement.
type MakespanPoint struct {
	Ranks     int     `json:"ranks"`
	SizeBytes int     `json:"size_bytes"`
	MeanUs    float64 `json:"mean_us"`
}

// LossRecoveryPoint is one DES loss-recovery measurement: a 1 MiB
// split transfer striped across the two-rail platform with every rail
// relnet-wrapped, under uniform per-packet loss from t=0. Deterministic
// (the per-NIC fault RNGs are seeded from topology coordinates), so the
// retransmit counts and makespans are comparable across machines; the
// spread of p50/p99 over the loss-0 row is the measured retransmission
// overhead.
type LossRecoveryPoint struct {
	LossPct     int     `json:"loss_pct"`
	SizeBytes   int     `json:"size_bytes"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	Retransmits uint64  `json:"retransmits"`
	Completed   int     `json:"completed"`
	Iters       int     `json:"iters"`
}

// TailLatencyPoint is one DES tail-latency measurement: 1 KiB sends
// between two hosts over both rails, p50/p99 makespan, hedged or not,
// under a fixed fault scenario armed from t=0 (see tailScenarios).
// Deterministic, fixed iteration count. DupBytes over PrimaryBytes is
// the duplicate-send overhead hedging paid for its tail win; the budget
// check pins it at or below 1x (at most one duplicate per primary, so
// total bytes stay within 2x).
type TailLatencyPoint struct {
	Scenario     string  `json:"scenario"`
	SizeBytes    int     `json:"size_bytes"`
	Hedged       bool    `json:"hedged"`
	P50Us        float64 `json:"p50_us"`
	P99Us        float64 `json:"p99_us"`
	DupBytes     uint64  `json:"dup_bytes"`
	PrimaryBytes uint64  `json:"primary_bytes"`
	Completed    int     `json:"completed"`
	Iters        int     `json:"iters"`
}

// AdaptiveSplitPoint is one DES adaptive-split measurement: a 2 MiB
// transfer striped across both rails with profile-static or
// estimator-adaptive split weights, under a fixed scenario (see
// adaptiveScenarios). Deterministic, fixed iteration count.
type AdaptiveSplitPoint struct {
	Scenario  string  `json:"scenario"`
	SizeBytes int     `json:"size_bytes"`
	Adaptive  bool    `json:"adaptive"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
}

// ThroughputPoint is one wall-clock engine throughput measurement.
type ThroughputPoint struct {
	Gates   int     `json:"gates"`
	MsgsSec float64 `json:"msgs_per_sec"`
}

// AllocFigure is one allocs-per-operation measurement with its budget.
type AllocFigure struct {
	Name        string  `json:"name"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Budget      float64 `json:"budget"`
}

// PerfReport is the BENCH_*.json document (see README "Performance").
type PerfReport struct {
	Schema string `json:"schema"`
	// DES figures: deterministic virtual time.
	PingpongLatency   []LatencyPoint       `json:"pingpong_latency"`
	AllreduceMakespan []MakespanPoint      `json:"allreduce_makespan"`
	LossRecovery      []LossRecoveryPoint  `json:"loss_recovery"`
	TailLatency       []TailLatencyPoint   `json:"tail_latency"`
	AdaptiveSplit     []AdaptiveSplitPoint `json:"adaptive_split"`
	// Wall-clock figures: machine-dependent, informational only.
	// shm_latency is empty on platforms without /dev/shm.
	ShmLatency          []ShmLatencyPoint `json:"shm_latency,omitempty"`
	MultiGateThroughput []ThroughputPoint `json:"multigate_throughput"`
	// Allocation figures: deterministic, budgeted.
	AllocsPerOp []AllocFigure `json:"allocs_per_op"`
}

// BuildPerfReport runs every figure at quality q.
func BuildPerfReport(q Quality) *PerfReport {
	r := &PerfReport{Schema: PerfSchema}

	// DES pingpong over the paper's heterogeneous two-rail platform,
	// sampled profiles, adaptive stripping — the headline configuration.
	split := func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }
	p := newPair(split, bothRails(), true)
	for _, pt := range p.SweepLatency([]int{64, 1 << 10, 64 << 10, 1 << 20}, q.opts(1)) {
		r.PingpongLatency = append(r.PingpongLatency, LatencyPoint{SizeBytes: pt.X, HalfRTTNs: pt.Y})
	}

	for _, size := range []int{1 << 10, 64 << 10} {
		r.AllreduceMakespan = append(r.AllreduceMakespan, MakespanPoint{
			Ranks: 8, SizeBytes: size,
			MeanUs: AllreduceMakespan(8, size, mpl.AlgoAuto, q),
		})
	}

	for _, loss := range []int{0, 10, 20} {
		r.LossRecovery = append(r.LossRecovery, lossRecovery(loss, 1<<20, q.Warmup+q.Iters))
	}

	// Tail latency and adaptive split run at fixed internal iteration
	// counts (see hedgefigures.go): the p99 gates in CheckBudgets pin
	// deterministic values that must not drift with the CLI -iters knob.
	for _, sc := range tailScenarios() {
		for _, hedged := range []bool{false, true} {
			run, st := runTail(sc, tailSize, tailIters, hedged)
			r.TailLatency = append(r.TailLatency, TailLatencyPoint{
				Scenario: sc.Name, SizeBytes: tailSize, Hedged: hedged,
				P50Us:        percentile(run.Makespans, 0.50) / 1e3,
				P99Us:        percentile(run.Makespans, 0.99) / 1e3,
				DupBytes:     st.DupBytes,
				PrimaryBytes: st.PrimaryBytes,
				Completed:    len(run.Makespans),
				Iters:        tailIters,
			})
		}
	}
	for _, sc := range adaptiveScenarios() {
		for _, adaptive := range []bool{false, true} {
			run := runAdaptive(sc, adaptSize, adaptIters, adaptive)
			r.AdaptiveSplit = append(r.AdaptiveSplit, AdaptiveSplitPoint{
				Scenario: sc.Name, SizeBytes: adaptSize, Adaptive: adaptive,
				P50Us: percentile(run.Makespans, 0.50) / 1e3,
				P99Us: percentile(run.Makespans, 0.99) / 1e3,
			})
		}
	}

	if pts, err := ShmLatencyFamily(ShmLatencySizes(), q); err == nil {
		r.ShmLatency = pts
	}

	for _, gates := range []int{1, 4} {
		r.MultiGateThroughput = append(r.MultiGateThroughput, ThroughputPoint{
			Gates: gates, MsgsSec: multiGateThroughput(gates),
		})
	}

	r.AllocsPerOp = []AllocFigure{
		{Name: "memdrv-pingpong", AllocsPerOp: pingpongAllocs(), Budget: 0},
		{Name: "memdrv-aggregation", AllocsPerOp: aggregationAllocs(), Budget: 0},
	}
	return r
}

// lossRecovery runs the loss_recovery figure at one loss rate: the
// split transfer over relnet-wrapped rails, loss on every class from
// t=0 so no iteration escapes it.
func lossRecovery(lossPct, size, iters int) LossRecoveryPoint {
	p := float64(lossPct) / 100
	sc := chaosScenario{
		Name: fmt.Sprintf("loss-%d%%", lossPct),
		Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("loss")
			if p > 0 {
				eachLink(top, -1, func(a, b *simnet.NIC) { s.DropOnLink(0, chaosHold, p, a, b) })
			}
			return s
		},
	}
	cfg := ClusterConfig{
		Strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
		Reliable: true,
	}
	run := runChaos(chaosPairTopo, cfg, sc, chaosSplitOp(), size, iters)
	return LossRecoveryPoint{
		LossPct: lossPct, SizeBytes: size,
		P50Us:       percentile(run.Makespans, 0.50) / 1e3,
		P99Us:       percentile(run.Makespans, 0.99) / 1e3,
		Retransmits: run.Retransmits,
		Completed:   len(run.Makespans),
		Iters:       iters,
	}
}

// CheckBudgets returns an error naming every figure over its budget:
// allocation figures over their allocs/op budgets, plus the tail-latency
// gates — hedging must strictly beat the unhedged p99 under jitter-30%
// while paying at most one duplicate per primary (DupBytes <=
// PrimaryBytes, i.e. total bytes within 2x), and adaptive split weights
// must not lose to the static profiles on the stationary baseline
// (within a 5% tolerance for the extra estimator chunking).
func (r *PerfReport) CheckBudgets() error {
	var over []string
	for _, f := range r.AllocsPerOp {
		if f.AllocsPerOp > f.Budget {
			over = append(over, fmt.Sprintf("%s: %.2f allocs/op (budget %.0f)", f.Name, f.AllocsPerOp, f.Budget))
		}
	}
	tail := func(scenario string, hedged bool) *TailLatencyPoint {
		for i := range r.TailLatency {
			if p := &r.TailLatency[i]; p.Scenario == scenario && p.Hedged == hedged {
				return p
			}
		}
		return nil
	}
	if h, u := tail("jitter-30%", true), tail("jitter-30%", false); h != nil && u != nil {
		if h.P99Us >= u.P99Us {
			over = append(over, fmt.Sprintf("tail_latency jitter-30%%: hedged p99 %.2fus not better than unhedged %.2fus", h.P99Us, u.P99Us))
		}
	}
	for _, p := range r.TailLatency {
		if p.Hedged && p.DupBytes > p.PrimaryBytes {
			over = append(over, fmt.Sprintf("tail_latency %s: dup bytes %d exceed primary bytes %d (more than one duplicate per send)", p.Scenario, p.DupBytes, p.PrimaryBytes))
		}
	}
	adapt := func(scenario string, adaptive bool) *AdaptiveSplitPoint {
		for i := range r.AdaptiveSplit {
			if p := &r.AdaptiveSplit[i]; p.Scenario == scenario && p.Adaptive == adaptive {
				return p
			}
		}
		return nil
	}
	if a, s := adapt("baseline", true), adapt("baseline", false); a != nil && s != nil {
		if a.P50Us > s.P50Us*1.05 {
			over = append(over, fmt.Sprintf("adaptive_split baseline: adaptive p50 %.2fus worse than static %.2fus (>5%%)", a.P50Us, s.P50Us))
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("perf budget exceeded: %v", over)
	}
	return nil
}

// WriteJSON serializes the report, indented, with a trailing newline.
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// nullDrv is an event-driven rail that completes every send immediately
// and discards the bytes: the multi-gate throughput figure isolates the
// engine's own send path exactly as the core benchmarks do.
type nullDrv struct {
	rail int
	ev   core.Events
}

func (d *nullDrv) Name() string          { return "null" }
func (d *nullDrv) Profile() core.Profile { return memdrv.DefaultProfile() }
func (d *nullDrv) Bind(rail int, ev core.Events) {
	d.rail, d.ev = rail, ev
}
func (d *nullDrv) Send(p *core.Packet) error {
	d.ev.SendComplete(d.rail)
	return nil
}
func (d *nullDrv) Close() error { return nil }

// multiGateThroughput measures wall-clock sends per second across gates
// concurrent sender gates on one engine.
func multiGateThroughput(gates int) float64 {
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	payload := make([]byte, 1024)
	const perGate = 20000
	done := make(chan struct{}, gates)
	gs := make([]*core.Gate, gates)
	for i := range gs {
		gs[i] = eng.NewGate(fmt.Sprintf("peer%d", i))
		gs[i].AddRail(&nullDrv{})
	}
	start := time.Now()
	for _, g := range gs {
		g := g
		go func() {
			for i := 0; i < perGate; i++ {
				sr := g.Isend(1, payload)
				for !sr.Done() {
				}
				sr.Recycle()
			}
			done <- struct{}{}
		}()
	}
	for range gs {
		<-done
	}
	elapsed := time.Since(start)
	return float64(gates*perGate) / elapsed.Seconds()
}

// memDuo is a two-engine in-memory platform for the allocation figures,
// mirroring the fixtures of the core alloc-regression tests.
type memDuo struct {
	engA, engB     *core.Engine
	gateAB, gateBA *core.Gate
	drvA           *memdrv.Driver
}

func newMemDuo(strat func() core.Strategy) *memDuo {
	d := &memDuo{
		engA: core.New(core.Config{Strategy: strat()}),
		engB: core.New(core.Config{Strategy: strat()}),
	}
	d.gateAB = d.engA.NewGate("B")
	d.gateBA = d.engB.NewGate("A")
	a, b := memdrv.Pair("perf", memdrv.DefaultProfile())
	d.gateAB.AddRail(a)
	d.gateBA.AddRail(b)
	d.drvA = a
	return d
}

// pump spins until every request is done. memdrv delivers synchronously,
// so this normally returns at the first check; it does not Wait because
// a request's completion channel is allocated on first use, which would
// show up in the allocation figures.
func (d *memDuo) pump(reqs ...core.Request) {
	for {
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
}

// pingpongAllocs measures steady-state allocs per full request/reply
// exchange over memdrv. The hot path is pooled end to end, so the figure
// is 0 and budgeted at 0.
func pingpongAllocs() float64 {
	d := newMemDuo(func() core.Strategy { return strategy.Must("balance") })
	ping := make([]byte, 1024)
	pong := make([]byte, 1024)
	recvA := make([]byte, 1024)
	recvB := make([]byte, 1024)
	round := func() {
		rr := d.gateBA.Irecv(7, recvB)
		sr := d.gateAB.Isend(7, ping)
		d.pump(sr, rr)
		rr2 := d.gateAB.Irecv(9, recvA)
		sr2 := d.gateBA.Isend(9, pong)
		d.pump(sr2, rr2)
		sr.Recycle()
		rr.Recycle()
		sr2.Recycle()
		rr2.Recycle()
	}
	for i := 0; i < 100; i++ {
		round()
	}
	return testing.AllocsPerRun(1000, round)
}

// aggregationAllocs measures steady-state allocs per aggregated flush of
// four small messages piled behind a held rail.
func aggregationAllocs() float64 {
	d := newMemDuo(func() core.Strategy { return strategy.NewAggreg(0) })
	const k = 4
	var msgs, recvs [k][]byte
	for i := range msgs {
		msgs[i] = make([]byte, 256)
		recvs[i] = make([]byte, 256)
	}
	var srs [k]*core.SendReq
	var rrs [k]*core.RecvReq
	round := func() {
		for i := 0; i < k; i++ {
			rrs[i] = d.gateBA.Irecv(5, recvs[i])
		}
		d.drvA.HoldCompletions()
		for i := 0; i < k; i++ {
			srs[i] = d.gateAB.Isend(5, msgs[i])
		}
		d.drvA.ReleaseCompletions()
		for i := 0; i < k; i++ {
			d.pump(srs[i], rrs[i])
			srs[i].Recycle()
			rrs[i].Recycle()
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	return testing.AllocsPerRun(1000, round)
}
