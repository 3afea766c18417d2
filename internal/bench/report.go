package bench

import (
	"fmt"
	"io"
)

// Claim is one checkable statement from the paper's evaluation.
type Claim struct {
	Figure   string
	What     string
	Paper    string
	Measured string
	OK       bool
}

// CheckClaims rebuilds the key figures and evaluates every quantitative
// claim of the paper against the simulated measurements, returning one
// row per claim (`nmad-bench -check` prints the table).
func CheckClaims(q Quality) []Claim {
	var out []Claim
	add := func(figure, what, paper string, measured string, ok bool) {
		out = append(out, Claim{Figure: figure, What: what, Paper: paper, Measured: measured, OK: ok})
	}
	build := func(id string) *Figure {
		f, err := Build(id, q)
		if err != nil {
			panic(err)
		}
		return f
	}
	y := func(f *Figure, series string, x int) float64 {
		for _, s := range f.Series {
			if s.Name == series {
				if v, ok := s.Y(x); ok {
					return v
				}
			}
		}
		return -1
	}

	fig2a, fig2b := build("fig2a"), build("fig2b")
	lat := y(fig2a, "regular", 4) / 1e3
	add("fig2a", "Myri-10G 4B latency", "2.8 us", fmt.Sprintf("%.2f us", lat), lat > 2.2 && lat < 3.4)
	bw := y(fig2b, "regular", 8<<20)
	add("fig2b", "Myri-10G peak bandwidth", "~1200 MB/s", fmt.Sprintf("%.0f MB/s", bw), bw > 1100 && bw < 1250)
	agg4 := y(fig2a, "4-segments+aggreg", 64)
	raw4 := y(fig2a, "4-segments", 64)
	add("fig2a", "aggregation recovers multi-segment overhead", "yes, cheap copies",
		fmt.Sprintf("%.2f -> %.2f us", raw4/1e3, agg4/1e3), agg4 < raw4)

	fig3a, fig3b := build("fig3a"), build("fig3b")
	lat = y(fig3a, "regular", 4) / 1e3
	add("fig3a", "Quadrics 4B latency", "1.7 us", fmt.Sprintf("%.2f us", lat), lat > 1.3 && lat < 2.2)
	bw = y(fig3b, "regular", 8<<20)
	add("fig3b", "Quadrics peak bandwidth", "~850 MB/s", fmt.Sprintf("%.0f MB/s", bw), bw > 780 && bw < 900)
	gq := y(fig3a, "2-segments", 256) / y(fig3a, "2-segments+aggreg", 256)
	gm := y(fig2a, "2-segments", 256) / y(fig2a, "2-segments+aggreg", 256)
	add("fig3a", "aggregation gain bigger on Quadrics", "yes",
		fmt.Sprintf("%.2fx vs %.2fx", gq, gm), gq > gm)

	fig4a, fig4b := build("fig4a"), build("fig4b")
	balS := y(fig4a, "2-seg balanced", 1<<10)
	quadS := y(fig4a, "2-agg over quadrics", 1<<10)
	add("fig4a", "greedy balancing hurts small messages", "worse below 16 KB",
		fmt.Sprintf("%.2f vs %.2f us at 1K", balS/1e3, quadS/1e3), balS > quadS)
	bal16 := y(fig4a, "2-seg balanced", 16<<10)
	myri16 := y(fig4a, "2-agg over myri", 16<<10)
	add("fig4a", "multi-rail pays off at 16 KB", "crossover at ~16 KB",
		fmt.Sprintf("%.2f vs %.2f us at 16K", bal16/1e3, myri16/1e3), bal16 < myri16)
	balBW := y(fig4b, "2-seg balanced", 8<<20)
	myriBW := y(fig4b, "2-agg over myri", 8<<20)
	add("fig4b", "balanced beats best single rail", "1675 vs 1200 MB/s",
		fmt.Sprintf("%.0f vs %.0f MB/s", balBW, myriBW), balBW > 1.15*myriBW)

	fig5b := build("fig5b")
	bal4BW := y(fig5b, "4-seg balanced", 8<<20)
	add("fig5b", "4-segment bandwidth stays high", "still rather high",
		fmt.Sprintf("%.0f MB/s (2-seg: %.0f)", bal4BW, balBW), bal4BW > 0.95*balBW)

	fig6 := build("fig6")
	strat := y(fig6, "2-seg aggrail", 4)
	quad := y(fig6, "2-agg over quadrics", 4)
	gap := (strat - quad) / 1e3
	add("fig6", "strategy tracks Quadrics with a polling gap", "gap from polling Myri NIC",
		fmt.Sprintf("gap %.2f us", gap), gap > 0 && gap < 0.8)

	fig7 := build("fig7")
	hetero := y(fig7, "hetero-split over both", 8<<20)
	iso := y(fig7, "iso-split over both", 8<<20)
	m1 := y(fig7, "one segment over myri", 8<<20)
	q1 := y(fig7, "one segment over quadrics", 8<<20)
	add("fig7", "hetero > iso > myri > quadrics at 8 MB", "1675 > iso > 1200 > 850",
		fmt.Sprintf("%.0f > %.0f > %.0f > %.0f", hetero, iso, m1, q1),
		hetero > iso && iso > m1 && m1 > q1)
	add("fig7", "hetero-split peak", "~1675 MB/s", fmt.Sprintf("%.0f MB/s", hetero),
		hetero > 1500 && hetero < 1700)

	return out
}

// WriteClaims renders the claim table.
func WriteClaims(w io.Writer, claims []Claim) {
	okAll := true
	fmt.Fprintf(w, "%-6s %-4s %-46s %-22s %s\n", "figure", "ok", "claim", "paper", "measured")
	for _, c := range claims {
		mark := "✓"
		if !c.OK {
			mark = "✗"
			okAll = false
		}
		fmt.Fprintf(w, "%-6s %-4s %-46s %-22s %s\n", c.Figure, mark, c.What, c.Paper, c.Measured)
	}
	if okAll {
		fmt.Fprintln(w, "all claims reproduced")
	} else {
		fmt.Fprintln(w, "SOME CLAIMS FAILED")
	}
}
