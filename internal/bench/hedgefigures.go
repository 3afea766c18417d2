package bench

import (
	"fmt"

	"newmad/internal/core"
	"newmad/internal/simnet"
	"newmad/internal/simnet/chaos"
	"newmad/internal/simnet/topo"
	"newmad/internal/strategy"
)

// Hedged & adaptive scheduling benchmarks: the tail-latency figures
// behind strategy.Hedge (race a duplicate on the second rail when the
// primary blows past its completion-time quantile) and the adaptive
// split weights of strategy.NewSplitDynAdaptive (shares follow the
// bandwidth each rail is observed to deliver, not the one it declared).
//
// Both figures run on the DES, so every number is deterministic virtual
// time; faults are armed from t=0 so every iteration feels them, and the
// iteration counts are fixed constants — independent of the CLI -iters
// knob — so the p99 points of the pinned perf report stay comparable
// across BENCH_*.json generations.

const (
	// tailSize is the hedged message size: small enough to stay in the
	// eager regime on both rails (hedging never duplicates rendezvous
	// transfers).
	tailSize = 1 << 10
	// tailIters gives the nearest-rank p99 a real tail to land on while
	// the whole sweep stays fast.
	tailIters = 33
	// adaptSize is the adaptive-split transfer size: large enough that a
	// single transfer re-fits its split many times over MinChunk chunks.
	adaptSize = 2 << 20
	// adaptIters makespans per scenario for the adaptive figure.
	adaptIters = 9
)

// tailScenarios are the fault scenarios of the tail-latency figures:
// nothing, symmetric per-packet host-cost noise, symmetric bandwidth
// degradation. Faults arm at t=0 — unlike the chaos figures there is no
// healthy warm-up window, every iteration runs under the fault.
func tailScenarios() []chaosScenario {
	return []chaosScenario{
		{Name: "baseline", Build: func(*topo.Topology) *chaos.Schedule {
			return chaos.NewSchedule("baseline")
		}},
		{Name: "jitter-30%", Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("jitter-30%")
			eachLink(top, -1, func(a, b *simnet.NIC) { s.JitterLink(0, chaosHold, 0.3, a, b) })
			return s
		}},
		{Name: "degrade-25%", Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("degrade-25%")
			eachLink(top, -1, func(a, b *simnet.NIC) { s.DegradeLink(0, chaosHold, 0.25, a, b) })
			return s
		}},
	}
}

// adaptiveScenarios are the fault scenarios of the adaptive-split
// figure. The interesting one is asymmetric: rail 0 (Myri-10G) degraded
// to 25% of its declared bandwidth while rail 1 keeps its profile. A
// static split keeps handing rail 0 its declared share — now 4x too
// big — while the adaptive split re-weights from observed completions.
// The baseline row is the stationary guard: estimator-driven weights
// must not lose to the declared profiles when the profiles are right.
func adaptiveScenarios() []chaosScenario {
	return []chaosScenario{
		{Name: "baseline", Build: func(*topo.Topology) *chaos.Schedule {
			return chaos.NewSchedule("baseline")
		}},
		{Name: "degrade-rail0-25%", Build: func(top *topo.Topology) *chaos.Schedule {
			s := chaos.NewSchedule("degrade-rail0-25%")
			eachLink(top, 0, func(a, b *simnet.NIC) { s.DegradeLink(0, chaosHold, 0.25, a, b) })
			return s
		}},
	}
}

// scenarioXLabel names a scenario axis.
func scenarioXLabel(scs []chaosScenario) string {
	names := ""
	for i, sc := range scs {
		if i > 0 {
			names += ", "
		}
		names += fmt.Sprintf("%d=%s", i, sc.Name)
	}
	return "fault scenario (" + names + ")"
}

// runTail measures the point-to-point transfer under one scenario with
// hedging on or off (same split-dyn-adaptive inner strategy either way,
// so the contrast isolates hedging) and returns the run plus the summed
// hedge counters across both engines.
func runTail(sc chaosScenario, size, iters int, hedged bool) (chaosRun, strategy.HedgeStats) {
	var hs []*strategy.Hedge
	cfg := ClusterConfig{Strategy: func() core.Strategy {
		inner := strategy.Must("split-dyn-adaptive")
		if !hedged {
			return inner
		}
		h := strategy.NewHedge(inner)
		hs = append(hs, h)
		return h
	}}
	run := runChaos(chaosPairTopo, cfg, sc, chaosSplitOp(), size, iters)
	var st strategy.HedgeStats
	for _, h := range hs {
		s := h.Stats()
		st.Eligible += s.Eligible
		st.Hedged += s.Hedged
		st.Cancelled += s.Cancelled
		st.PrimaryBytes += s.PrimaryBytes
		st.DupBytes += s.DupBytes
	}
	return run, st
}

// runAdaptive measures the two-rail split transfer under one scenario
// with profile-static or estimator-adaptive split weights.
func runAdaptive(sc chaosScenario, size, iters int, adaptive bool) chaosRun {
	cfg := ClusterConfig{Strategy: func() core.Strategy {
		if adaptive {
			return strategy.Must("split-dyn-adaptive")
		}
		return strategy.Must("split-dyn")
	}}
	return runChaos(chaosPairTopo, cfg, sc, chaosSplitOp(), size, iters)
}

// ExtHedge builds the hedged tail-latency figure: 1 KiB sends between
// two hosts over both rails, hedged versus unhedged, p50 and p99
// makespan under each tail scenario. Hedging buys nothing at the median
// (the stagger quantile means healthy sends never duplicate) and wins at
// the tail: a send stuck behind a jittered or degraded primary races a
// duplicate down the second rail and completes at the earlier of the
// two. Iteration counts are fixed (tailIters), not taken from q: the
// checked-in perf report pins these exact deterministic numbers.
func ExtHedge(Quality) *Figure {
	fig := &Figure{
		ID:     "ext-hedge",
		Title:  fmt.Sprintf("Hedged vs unhedged small sends (%d B, two rails, makespan)", tailSize),
		XLabel: scenarioXLabel(tailScenarios()), YLabel: "us",
	}
	for _, v := range []struct {
		name   string
		hedged bool
	}{{"unhedged", false}, {"hedged", true}} {
		p50 := Series{Name: v.name + " p50"}
		p99 := Series{Name: v.name + " p99"}
		for x, sc := range tailScenarios() {
			run, _ := runTail(sc, tailSize, tailIters, v.hedged)
			p50.Points = append(p50.Points, Point{X: x, Y: percentile(run.Makespans, 0.50)})
			p99.Points = append(p99.Points, Point{X: x, Y: percentile(run.Makespans, 0.99)})
		}
		fig.Series = append(fig.Series, p50, p99)
	}
	return fig
}

// ExtAdaptive builds the adaptive-split figure: a 2 MiB transfer striped
// across both rails, profile-static versus estimator-adaptive split
// weights, p50 and p99 makespan with rail 0 healthy and asymmetrically
// degraded. Iteration counts are fixed (adaptIters), not taken from q.
func ExtAdaptive(Quality) *Figure {
	fig := &Figure{
		ID:     "ext-adaptive",
		Title:  fmt.Sprintf("Static vs adaptive split weights (%d MiB, two rails, makespan)", adaptSize>>20),
		XLabel: scenarioXLabel(adaptiveScenarios()), YLabel: "us",
	}
	for _, v := range []struct {
		name     string
		adaptive bool
	}{{"split-dyn", false}, {"split-dyn-adaptive", true}} {
		p50 := Series{Name: v.name + " p50"}
		p99 := Series{Name: v.name + " p99"}
		for x, sc := range adaptiveScenarios() {
			run := runAdaptive(sc, adaptSize, adaptIters, v.adaptive)
			p50.Points = append(p50.Points, Point{X: x, Y: percentile(run.Makespans, 0.50)})
			p99.Points = append(p99.Points, Point{X: x, Y: percentile(run.Makespans, 0.99)})
		}
		fig.Series = append(fig.Series, p50, p99)
	}
	return fig
}
