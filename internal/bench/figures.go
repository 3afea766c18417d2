package bench

import (
	"fmt"
	"sort"

	"newmad/internal/core"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Quality controls measurement effort.
type Quality struct {
	Warmup int
	Iters  int
	Verify bool
	// Coll forces the collective algorithm of the "selected" series in
	// the ext-coll figure ("linear", "tree", "pipeline"; empty = auto).
	Coll string
}

// Default is the quality used by the CLI.
func Default() Quality { return Quality{Warmup: 2, Iters: 8} }

// Fast is a reduced-effort quality for tests.
func Fast() Quality { return Quality{Warmup: 1, Iters: 3} }

func (q Quality) opts(segs int) SweepOptions {
	return SweepOptions{Segments: segs, Warmup: q.Warmup, Iters: q.Iters, Verify: q.Verify}
}

func myriRails() []simnet.NICParams { return []simnet.NICParams{simnet.Myri10G()} }
func quadRails() []simnet.NICParams { return []simnet.NICParams{simnet.QsNetII()} }
func bothRails() []simnet.NICParams { return []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()} }

func newPair(strat func() core.Strategy, nics []simnet.NICParams, sample bool) *Pair {
	return NewPair(PairConfig{NICs: nics, Strategy: strat, Sample: sample})
}

// sweep measures one curve on a fresh platform.
func sweep(name string, strat func() core.Strategy, nics []simnet.NICParams, sample bool,
	sizes []int, opts SweepOptions, bandwidth bool) Series {
	p := newPair(strat, nics, sample)
	if bandwidth {
		return Series{Name: name, Points: p.SweepBandwidth(sizes, opts)}
	}
	return Series{Name: name, Points: p.SweepLatency(sizes, opts)}
}

// rawFig builds Figures 2 and 3: single-rail raw performance for regular
// and multi-segment messages, with and without opportunistic aggregation.
func rawFig(id, title string, nics []simnet.NICParams, sizes []int, bandwidth bool, q Quality) *Figure {
	ylabel := "us"
	if bandwidth {
		ylabel = "MB/s"
	}
	fifo := func() core.Strategy { return strategy.NewFIFO(0) }
	aggreg := func() core.Strategy { return strategy.NewAggreg(0) }
	return &Figure{
		ID: id, Title: title, XLabel: "total data size (bytes)", YLabel: ylabel,
		Series: []Series{
			sweep("regular", fifo, nics, false, sizes, q.opts(1), bandwidth),
			sweep("2-segments", fifo, nics, false, sizes, q.opts(2), bandwidth),
			sweep("2-segments+aggreg", aggreg, nics, false, sizes, q.opts(2), bandwidth),
			sweep("4-segments", fifo, nics, false, sizes, q.opts(4), bandwidth),
			sweep("4-segments+aggreg", aggreg, nics, false, sizes, q.opts(4), bandwidth),
		},
	}
}

// Fig2a reproduces Figure 2(a): NewMadeleine over Myri-10G, latency.
func Fig2a(q Quality) *Figure {
	return rawFig("fig2a", "Raw performance over Myri-10G (latency)", myriRails(), LatencySizes(), false, q)
}

// Fig2b reproduces Figure 2(b): NewMadeleine over Myri-10G, bandwidth.
func Fig2b(q Quality) *Figure {
	return rawFig("fig2b", "Raw performance over Myri-10G (bandwidth)", myriRails(), BandwidthSizes(), true, q)
}

// Fig3a reproduces Figure 3(a): NewMadeleine over Quadrics, latency.
func Fig3a(q Quality) *Figure {
	return rawFig("fig3a", "Raw performance over Quadrics (latency)", quadRails(), LatencySizes(), false, q)
}

// Fig3b reproduces Figure 3(b): NewMadeleine over Quadrics, bandwidth.
func Fig3b(q Quality) *Figure {
	return rawFig("fig3b", "Raw performance over Quadrics (bandwidth)", quadRails(), BandwidthSizes(), true, q)
}

// greedyFig builds Figures 4 and 5: greedy balancing against the
// aggregated single-rail references, for segs-segment messages.
func greedyFig(id, title string, segs int, sizes []int, bandwidth bool, q Quality) *Figure {
	ylabel := "us"
	if bandwidth {
		ylabel = "MB/s"
	}
	aggreg := func() core.Strategy { return strategy.NewAggreg(0) }
	balance := func() core.Strategy { return strategy.Must("balance") }
	pre := fmt.Sprintf("%d", segs)
	return &Figure{
		ID: id, Title: title, XLabel: "total data size (bytes)", YLabel: ylabel,
		Series: []Series{
			sweep(pre+"-agg over myri", aggreg, myriRails(), false, sizes, q.opts(segs), bandwidth),
			sweep(pre+"-agg over quadrics", aggreg, quadRails(), false, sizes, q.opts(segs), bandwidth),
			sweep(pre+"-seg balanced", balance, bothRails(), false, sizes, q.opts(segs), bandwidth),
		},
	}
}

// Fig4a reproduces Figure 4(a): greedy balancing, 2 segments, latency.
func Fig4a(q Quality) *Figure {
	return greedyFig("fig4a", "Greedy balancing, 2-segment messages (latency)", 2, PowersOfTwo(4, 16<<10), false, q)
}

// Fig4b reproduces Figure 4(b): greedy balancing, 2 segments, bandwidth.
func Fig4b(q Quality) *Figure {
	return greedyFig("fig4b", "Greedy balancing, 2-segment messages (bandwidth)", 2, BandwidthSizes(), true, q)
}

// Fig5a reproduces Figure 5(a): greedy balancing, 4 segments, latency.
func Fig5a(q Quality) *Figure {
	return greedyFig("fig5a", "Greedy balancing, 4-segment messages (latency)", 4, PowersOfTwo(16, 16<<10), false, q)
}

// Fig5b reproduces Figure 5(b): greedy balancing, 4 segments, bandwidth.
func Fig5b(q Quality) *Figure {
	return greedyFig("fig5b", "Greedy balancing, 4-segment messages (bandwidth)", 4, BandwidthSizes(), true, q)
}

// Fig6 reproduces Figure 6: small messages aggregated onto the fastest
// NIC (Quadrics), shown against the single-rail references. The gap to
// the Quadrics-only curve is the cost of polling the idle Myri-10G NIC.
func Fig6(q Quality) *Figure {
	sizes := PowersOfTwo(4, 16<<10)
	aggreg := func() core.Strategy { return strategy.NewAggreg(0) }
	aggrail := func() core.Strategy { return strategy.Must("aggrail") }
	return &Figure{
		ID: "fig6", Title: "Aggregated eager messages on fastest NIC (latency)",
		XLabel: "total data size (bytes)", YLabel: "us",
		Series: []Series{
			sweep("2-agg over myri", aggreg, myriRails(), false, sizes, q.opts(2), false),
			sweep("2-agg over quadrics", aggreg, quadRails(), false, sizes, q.opts(2), false),
			sweep("2-seg aggrail", aggrail, bothRails(), false, sizes, q.opts(2), false),
		},
	}
}

// Fig7 reproduces Figure 7: stripping a single large segment across both
// rails, equal halves (iso) versus sampled-bandwidth ratios (hetero),
// against the single-rail references.
func Fig7(q Quality) *Figure {
	sizes := BandwidthSizes()
	fifo := func() core.Strategy { return strategy.NewFIFO(0) }
	iso := func() core.Strategy { return strategy.NewSplit(strategy.SplitIso) }
	ratio := func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }
	return &Figure{
		ID: "fig7", Title: "Packet stripping with adaptive threshold (bandwidth)",
		XLabel: "total data size (bytes)", YLabel: "MB/s",
		Series: []Series{
			sweep("one segment over myri", fifo, myriRails(), false, sizes, q.opts(1), true),
			sweep("one segment over quadrics", fifo, quadRails(), false, sizes, q.opts(1), true),
			sweep("iso-split over both", iso, bothRails(), true, sizes, q.opts(1), true),
			sweep("hetero-split over both", ratio, bothRails(), true, sizes, q.opts(1), true),
		},
	}
}

// builders maps figure IDs to constructors: the paper's Figures 2–7
// plus the extension experiments (ext-*, see extfigures.go).
var builders = map[string]func(Quality) *Figure{
	"fig2a": Fig2a, "fig2b": Fig2b,
	"fig3a": Fig3a, "fig3b": Fig3b,
	"fig4a": Fig4a, "fig4b": Fig4b,
	"fig5a": Fig5a, "fig5b": Fig5b,
	"fig6": Fig6, "fig7": Fig7,
	"ext-pio": ExtPIO, "ext-rails": ExtRails, "ext-mixed": ExtMixed,
	"ext-coll": ExtColl, "ext-allreduce": ExtAllreduce,
	"ext-chaos-coll": ExtChaosColl, "ext-chaos-split": ExtChaosSplit,
	"ext-hedge": ExtHedge, "ext-adaptive": ExtAdaptive,
}

// FigureIDs lists every reproducible figure in order.
func FigureIDs() []string {
	ids := make([]string, 0, len(builders))
	for id := range builders {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Build constructs the figure with the given ID.
func Build(id string, q Quality) (*Figure, error) {
	b, ok := builders[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown figure %q (have %v)", id, FigureIDs())
	}
	return b(q), nil
}
