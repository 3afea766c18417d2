package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/mpl"
	"newmad/internal/strategy"
)

// This file is the pinned performance trajectory: BuildPerfReport runs a
// fixed set of headline measurements and serializes them as a
// BENCH_<n>.json report checked in at the repo root, so every growth
// step leaves a comparable perf record behind. Two figure families:
//
//   - DES figures (pingpong latency, allreduce makespan, loss recovery,
//     tail latency, adaptive split) are virtual time — fully
//     deterministic, comparable across machines;
//   - allocation figures (allocs/op on the pooled hot paths) are
//     deterministic and carry budgets: a report whose measured allocs
//     exceed a budget is a regression, and nmad-bench -emit-json exits
//     nonzero.
//
// Wall-clock measurements live in the nmbench module, which repeats
// them and reports their spread.

// PerfSchema identifies the report layout. /2 added the loss_recovery
// family (reliable-rail split transfers under per-packet loss). /3
// added the shm_latency family. /4 added the tail_latency family
// (hedged vs unhedged small sends under jitter and degradation) and the
// adaptive_split family (estimator-adaptive vs profile-static split
// weights). /5 removed the wall-clock families, shm_latency and
// multigate_throughput.
const PerfSchema = "newmad-perf/5"

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
// under a fixed fault scenario armed from t=0 (the ext-hedge figure row).
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
// estimator-adaptive split weights, under a fixed scenario (the
// ext-adaptive figure row). Deterministic, fixed iteration count.
type AdaptiveSplitPoint struct {
	Scenario  string  `json:"scenario"`
	SizeBytes int     `json:"size_bytes"`
	Adaptive  bool    `json:"adaptive"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
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
	// Allocation figures: deterministic, budgeted.
	AllocsPerOp []AllocFigure `json:"allocs_per_op"`
}

// BuildPerfReport runs every figure at quality q.
func BuildPerfReport(q Quality) *PerfReport {
	r := &PerfReport{Schema: PerfSchema}

	// DES pingpong over the paper's heterogeneous two-rail platform,
	// sampled profiles, adaptive stripping — the headline configuration.
	headline := seriesRow{strategy: "split", rails: bothRails(), sample: true}
	for _, pt := range headline.pair().SweepLatency([]int{64, 1 << 10, 64 << 10, 1 << 20}, 1, q) {
		r.PingpongLatency = append(r.PingpongLatency, LatencyPoint{SizeBytes: pt.X, HalfRTTNs: pt.Y})
	}

	auto := seriesRow{strategy: "split", rails: bothRails(), op: allreduce(mpl.AlgoAuto)}
	for _, size := range []int{1 << 10, 64 << 10} {
		r.AllreduceMakespan = append(r.AllreduceMakespan, MakespanPoint{
			Ranks: collRanks, SizeBytes: size, MeanUs: collMakespan(auto.cluster(), auto.op, size, q),
		})
	}

	// Loss recovery: a 1 MiB split transfer over relnet-wrapped rails,
	// loss on every class from t=0 so no iteration escapes it.
	lossy := seriesRow{strategy: "split", rails: bothRails(), reliable: true, op: underChaos(splitXfer)}
	for _, l := range []struct {
		pct      int
		scenario string
	}{{0, "baseline"}, {10, "loss-all-10%"}, {20, "loss-all-20%"}} {
		const size = 1 << 20
		iters := q.Warmup + q.Iters
		run := lossy.runChaos(scenario(l.scenario, 0), size, iters)
		r.LossRecovery = append(r.LossRecovery, LossRecoveryPoint{
			LossPct: l.pct, SizeBytes: size,
			P50Us:       percentile(run.Makespans, 0.50) / 1e3,
			P99Us:       percentile(run.Makespans, 0.99) / 1e3,
			Retransmits: run.Retransmits,
			Completed:   len(run.Makespans),
			Iters:       iters,
		})
	}

	// Tail latency and adaptive split rerun the ext-hedge and
	// ext-adaptive figure rows at their fixed iteration counts: the p99
	// gates in CheckBudgets pin deterministic values that must not drift
	// with the CLI -iters knob.
	hedge := figureNamed("ext-hedge")
	for _, name := range hedge.scenarios {
		for _, s := range hedge.series {
			run := s.runChaos(scenario(name, hedge.at), hedge.size, hedge.iters)
			r.TailLatency = append(r.TailLatency, TailLatencyPoint{
				Scenario: name, SizeBytes: hedge.size, Hedged: s.strategy == "hedge",
				P50Us:        percentile(run.Makespans, 0.50) / 1e3,
				P99Us:        percentile(run.Makespans, 0.99) / 1e3,
				DupBytes:     run.Hedge.DupBytes,
				PrimaryBytes: run.Hedge.PrimaryBytes,
				Completed:    len(run.Makespans),
				Iters:        hedge.iters,
			})
		}
	}
	adapt := figureNamed("ext-adaptive")
	for _, name := range adapt.scenarios {
		for _, s := range adapt.series {
			run := s.runChaos(scenario(name, adapt.at), adapt.size, adapt.iters)
			r.AdaptiveSplit = append(r.AdaptiveSplit, AdaptiveSplitPoint{
				Scenario: name, SizeBytes: adapt.size, Adaptive: s.strategy == "split-dyn-adaptive",
				P50Us: percentile(run.Makespans, 0.50) / 1e3,
				P99Us: percentile(run.Makespans, 0.99) / 1e3,
			})
		}
	}

	r.AllocsPerOp = []AllocFigure{
		{Name: "memdrv-pingpong", AllocsPerOp: pingpongAllocs(), Budget: 0},
		{Name: "memdrv-aggregation", AllocsPerOp: aggregationAllocs(), Budget: 0},
	}
	return r
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

// duo is two engines joined by one real driver pair, for the
// allocation figures and the same-host wall-clock pingpong.
type duo struct {
	engA, engB     *core.Engine
	gateAB, gateBA *core.Gate
}

func newDuo(strat func() core.Strategy, a, b core.Driver) *duo {
	d := &duo{
		engA: core.New(core.Config{Strategy: strat()}),
		engB: core.New(core.Config{Strategy: strat()}),
	}
	d.gateAB = d.engA.NewGate("B")
	d.gateBA = d.engB.NewGate("A")
	d.gateAB.AddRail(a)
	d.gateBA.AddRail(b)
	return d
}

func (d *duo) close() {
	d.engA.Close()
	d.engB.Close()
}

// pump spins until every request is done. memdrv delivers synchronously,
// so this normally returns at the first check; it does not Wait because
// a request's completion channel is allocated on first use, which would
// show up in the allocation figures.
func (d *duo) pump(reqs ...core.Request) {
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
	a, b := memdrv.Pair("perf", memdrv.DefaultProfile())
	d := newDuo(func() core.Strategy { return strategy.Must("balance") }, a, b)
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
	a, b := memdrv.Pair("perf", memdrv.DefaultProfile())
	d := newDuo(func() core.Strategy { return strategy.NewAggreg(0) }, a, b)
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
		a.HoldCompletions()
		for i := 0; i < k; i++ {
			srs[i] = d.gateAB.Isend(5, msgs[i])
		}
		a.ReleaseCompletions()
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
