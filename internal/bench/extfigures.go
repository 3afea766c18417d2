package bench

import (
	"fmt"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Extension experiments beyond the paper's figures, registered in the
// same harness (the figure registry in figures.go): the §4 future-work
// items and the design-knob ablations, as sweepable figures.

// ExtPIO measures the paper's §4 "multi-threaded implementation that
// will process parallel PIO transfers": 2-segment greedy balancing with
// 1 vs 2 PIO-capable CPU lanes. With 2 lanes the small-message penalty
// of multi-rail shrinks and the crossover moves left.
func ExtPIO(q Quality) *Figure {
	sizes := PowersOfTwo(4, 32<<10)
	balance := func() core.Strategy { return strategy.Must("balance") }
	mk := func(lanes int) Series {
		host := simnet.Opteron()
		host.PIOLanes = lanes
		p := NewPair(PairConfig{Host: host, NICs: bothRails(), Strategy: balance})
		return Series{
			Name:   fmt.Sprintf("%d PIO lane(s)", lanes),
			Points: p.SweepLatency(sizes, q.opts(2)),
		}
	}
	aggreg := func() core.Strategy { return strategy.NewAggreg(0) }
	return &Figure{
		ID: "ext-pio", Title: "Parallel PIO (paper §4 future work), 2-seg balanced latency",
		XLabel: "total data size (bytes)", YLabel: "us",
		Series: []Series{
			sweep("best single rail (quadrics)", aggreg, quadRails(), false, sizes, q.opts(2), false),
			mk(1),
			mk(2),
		},
	}
}

// ExtRails compares stripping over two heterogeneous rails against three
// (adding GigE). On a bus-limited host the third rail cannot add
// bandwidth — the bus, not the NICs, is the bottleneck.
func ExtRails(q Quality) *Figure {
	sizes := BandwidthSizes()
	split := func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) }
	three := []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII(), simnet.GigE()}
	return &Figure{
		ID: "ext-rails", Title: "Third rail (GigE) under adaptive stripping, bandwidth",
		XLabel: "total data size (bytes)", YLabel: "MB/s",
		Series: []Series{
			sweep("2 rails split", split, bothRails(), true, sizes, q.opts(1), true),
			sweep("3 rails split", split, three, true, sizes, q.opts(1), true),
		},
	}
}

// ExtMixed runs the mixed workload (a stream of small control messages
// competing with bulk transfers) across the strategy generations. X is
// the small-message injection interval in nanoseconds: smaller interval
// = more competing traffic. Y is bulk completion time.
func ExtMixed(Quality) *Figure {
	intervals := []int{1000, 2000, 4000, 8000, 16000}
	names := []string{"balance", "aggrail", "split", "split-dyn"}
	fig := &Figure{
		ID: "ext-mixed", Title: "Bulk completion under competing small-message traffic",
		XLabel: "small-message interval (ns)", YLabel: "us",
	}
	for _, name := range names {
		name := name
		s := Series{Name: name}
		for _, iv := range intervals {
			p := NewPair(PairConfig{
				NICs: bothRails(),
				Strategy: func() core.Strategy {
					st, err := strategy.New(name)
					if err != nil {
						panic(err)
					}
					return st
				},
				Sample: true,
			})
			m := &MixedWorkload{SmallEvery: des.Time(iv)}
			s.Points = append(s.Points, Point{X: iv, Y: float64(m.Run(p))})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
