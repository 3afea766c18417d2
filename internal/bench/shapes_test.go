package bench

// Reproduction tests: assert the qualitative shapes of every figure in
// the paper's evaluation — who wins, by roughly what factor, where the
// crossovers fall. Absolute timings are model outputs; these tests pin
// the claims the paper draws from each figure.

import "testing"

func buildFig(t *testing.T, id string) *Figure {
	t.Helper()
	fig, err := Build(id, Fast())
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

func seriesY(t *testing.T, fig *Figure, name string, x int) float64 {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name == name {
			y, ok := s.Y(x)
			if !ok {
				t.Fatalf("%s/%s has no point at %d", fig.ID, name, x)
			}
			return y
		}
	}
	t.Fatalf("%s has no series %q", fig.ID, name)
	return 0
}

// Figure 2: Myri-10G raw performance. Paper: 2.8 us latency, ~1200 MB/s,
// multi-segment messages pay per-packet costs that aggregation recovers
// below ~16 KB, at a very low copy cost.
func TestShapeFig2(t *testing.T) {
	fig := buildFig(t, "fig2a")
	lat4 := seriesY(t, fig, "regular", 4) / 1000 // us
	if lat4 < 2.2 || lat4 > 3.4 {
		t.Errorf("Myri 4B latency %.2f us, paper 2.8", lat4)
	}
	// 4-segment messages cost visibly more than regular at small sizes.
	if r := seriesY(t, fig, "4-segments", 64) / seriesY(t, fig, "regular", 64); r < 1.4 {
		t.Errorf("4-seg/regular at 64B = %.2f, want >= 1.4", r)
	}
	// Aggregation recovers most of the gap.
	agg := seriesY(t, fig, "4-segments+aggreg", 64)
	raw := seriesY(t, fig, "4-segments", 64)
	reg := seriesY(t, fig, "regular", 64)
	if agg >= raw {
		t.Errorf("aggregation did not help: %.0f >= %.0f", agg, raw)
	}
	if agg > reg*1.35 {
		t.Errorf("aggregated 4-seg %.0f too far above regular %.0f (copy should be cheap)", agg, reg)
	}

	figB := buildFig(t, "fig2b")
	if bw := seriesY(t, figB, "regular", 8<<20); bw < 1100 || bw > 1250 {
		t.Errorf("Myri peak bandwidth %.0f MB/s, paper ~1200", bw)
	}
}

// Figure 3: Quadrics raw performance. Paper: 1.7 us, ~850 MB/s, and the
// aggregation gain on small messages is even bigger than on Myri-10G.
func TestShapeFig3(t *testing.T) {
	fig := buildFig(t, "fig3a")
	lat4 := seriesY(t, fig, "regular", 4) / 1000
	if lat4 < 1.3 || lat4 > 2.2 {
		t.Errorf("Quadrics 4B latency %.2f us, paper 1.7", lat4)
	}
	figB := buildFig(t, "fig3b")
	if bw := seriesY(t, figB, "regular", 8<<20); bw < 780 || bw > 900 {
		t.Errorf("Quadrics peak bandwidth %.0f MB/s, paper ~850", bw)
	}
	// Relative aggregation gain at 256B is larger on Quadrics than Myri.
	gain := func(id string) float64 {
		f := buildFig(t, id)
		return seriesY(t, f, "2-segments", 256) / seriesY(t, f, "2-segments+aggreg", 256)
	}
	if gq, gm := gain("fig3a"), gain("fig2a"); gq <= gm {
		t.Errorf("aggregation gain Quadrics %.3f <= Myri %.3f; paper says bigger on Quadrics", gq, gm)
	}
}

// Figure 4: greedy balancing with 2 segments. Paper: balanced transfers
// only pay off above ~16 KB total (PIO serialization below), and the
// balanced bandwidth beats the best single rail for large messages.
func TestShapeFig4(t *testing.T) {
	fig := buildFig(t, "fig4a")
	bestSingle := func(x int) float64 {
		m := seriesY(t, fig, "2-agg over myri", x)
		if q := seriesY(t, fig, "2-agg over quadrics", x); q < m {
			return q
		}
		return m
	}
	// Small messages: balancing is NOT a win.
	for _, x := range []int{4, 64, 1024} {
		if bal := seriesY(t, fig, "2-seg balanced", x); bal <= bestSingle(x) {
			t.Errorf("balanced wins at %dB (%.0f <= %.0f); paper says it must lose below 16K", x, bal, bestSingle(x))
		}
	}
	// At 16K total the crossover has happened.
	if bal := seriesY(t, fig, "2-seg balanced", 16<<10); bal >= bestSingle(16<<10) {
		t.Errorf("balanced still losing at 16K: %.0f vs %.0f", bal, bestSingle(16<<10))
	}

	figB := buildFig(t, "fig4b")
	balBW := seriesY(t, figB, "2-seg balanced", 8<<20)
	myriBW := seriesY(t, figB, "2-agg over myri", 8<<20)
	quadBW := seriesY(t, figB, "2-agg over quadrics", 8<<20)
	if balBW <= myriBW || balBW <= quadBW {
		t.Errorf("balanced %.0f must beat both singles (%.0f, %.0f)", balBW, myriBW, quadBW)
	}
	if balBW < 1.15*myriBW {
		t.Errorf("balanced %.0f only %.2fx over Myri; paper shows a clear aggregate win", balBW, balBW/myriBW)
	}
	if balBW > myriBW+quadBW {
		t.Errorf("balanced %.0f exceeds the sum of rails — bus cap missing", balBW)
	}
}

// Figure 5: same with 4 segments; same overall behaviour, and large
// transfers still aggregate high bandwidth despite more packets.
func TestShapeFig5(t *testing.T) {
	fig := buildFig(t, "fig5a")
	if bal, myri := seriesY(t, fig, "4-seg balanced", 64), seriesY(t, fig, "4-agg over myri", 64); bal <= myri {
		t.Errorf("4-seg balanced wins at 64B (%.0f <= %.0f)", bal, myri)
	}
	figB := buildFig(t, "fig5b")
	balBW := seriesY(t, figB, "4-seg balanced", 8<<20)
	myriBW := seriesY(t, figB, "4-agg over myri", 8<<20)
	if balBW <= myriBW {
		t.Errorf("4-seg balanced %.0f must beat Myri %.0f at 8M", balBW, myriBW)
	}
	// Within ~5%% of the 2-segment balanced result (paper: "still
	// interestingly rather high" despite more elementary transfers).
	fig4B := buildFig(t, "fig4b")
	bal2 := seriesY(t, fig4B, "2-seg balanced", 8<<20)
	if balBW < 0.95*bal2 {
		t.Errorf("4-seg balanced %.0f dropped too far below 2-seg %.0f", balBW, bal2)
	}
}

// Figure 6: aggregating small messages onto the fastest NIC. Paper: the
// strategy tracks the Quadrics-only curve with a small constant gap —
// the unavoidable cost of polling the idle Myri-10G NIC.
func TestShapeFig6(t *testing.T) {
	fig := buildFig(t, "fig6")
	for _, x := range []int{4, 64, 1024, 4096} {
		quad := seriesY(t, fig, "2-agg over quadrics", x)
		strat := seriesY(t, fig, "2-seg aggrail", x)
		if strat <= quad {
			t.Errorf("at %dB the multi-rail engine (%.0f) cannot beat Quadrics-only (%.0f): polling is not free", x, strat, quad)
		}
		gap := strat - quad
		if gap > 800 { // ns; the gap is a fraction of a microsecond
			t.Errorf("polling gap at %dB is %.0f ns — too large", x, gap)
		}
	}
	// Where Quadrics-only beats Myri-only (genuinely small messages),
	// the strategy must too; at larger sizes Myri's bandwidth wins and
	// the curves cross, as in the paper's Figure 4(a).
	for _, x := range []int{4, 64, 1024} {
		myri := seriesY(t, fig, "2-agg over myri", x)
		strat := seriesY(t, fig, "2-seg aggrail", x)
		if strat >= myri {
			t.Errorf("at %dB aggrail (%.0f) must still beat the Myri-only curve (%.0f)", x, strat, myri)
		}
	}
}

// Figure 7: adaptive stripping. Paper ordering at 8 MB:
// hetero-split > iso-split > Myri-only > Quadrics-only, with
// hetero ~1675 MB/s on a ~2 GB/s bus.
func TestShapeFig7(t *testing.T) {
	fig := buildFig(t, "fig7")
	x := 8 << 20
	hetero := seriesY(t, fig, "hetero-split over both", x)
	iso := seriesY(t, fig, "iso-split over both", x)
	myri := seriesY(t, fig, "one segment over myri", x)
	quad := seriesY(t, fig, "one segment over quadrics", x)
	if !(hetero > iso && iso > myri && myri > quad) {
		t.Fatalf("ordering broken: hetero=%.0f iso=%.0f myri=%.0f quad=%.0f", hetero, iso, myri, quad)
	}
	if hetero < 1500 || hetero > 1700 {
		t.Errorf("hetero-split %.0f MB/s, paper ~1675", hetero)
	}
	if r := hetero / myri; r < 1.3 {
		t.Errorf("hetero/myri = %.2f, want a clear multi-rail win", r)
	}
	// At the smallest size, splits are close to single-rail (no big win
	// yet) — multi-rail benefits start at 32KB-class messages.
	small := 32 << 10
	h := seriesY(t, fig, "hetero-split over both", small)
	m := seriesY(t, fig, "one segment over myri", small)
	if h > 1.25*m {
		t.Errorf("at 32K hetero %.0f is implausibly far above Myri %.0f", h, m)
	}
}

// The paper's overall conclusion: the final strategy (split) is at least
// as good as every earlier strategy on both ends of the size spectrum.
func TestShapeFinalStrategyDominates(t *testing.T) {
	mk := func(name string) *Pair {
		return seriesRow{strategy: name, rails: bothRails(), sample: true}.pair()
	}
	sizes := []int{256, 8 << 20}
	split := mk("split").SweepLatency(sizes, 2, Fast())
	balance := mk("balance").SweepLatency(sizes, 2, Fast())
	// Small: split (aggregating on the fast rail) beats greedy balance.
	if split[0].Y >= balance[0].Y {
		t.Errorf("small messages: split %.0f >= balance %.0f", split[0].Y, balance[0].Y)
	}
	// Large: split beats greedy balance too (stripping).
	if split[1].Y >= balance[1].Y {
		t.Errorf("large messages: split %.0f >= balance %.0f", split[1].Y, balance[1].Y)
	}
}

// Extension: with 2 PIO lanes, balanced small/mid messages improve over
// 1 lane (paper §4 future work), approaching the single-rail reference.
func TestShapeExtPIO(t *testing.T) {
	fig := buildFig(t, "ext-pio")
	one := seriesY(t, fig, "1 PIO lane(s)", 8<<10)
	two := seriesY(t, fig, "2 PIO lane(s)", 8<<10)
	if two >= one {
		t.Errorf("2 lanes (%.0f) not faster than 1 (%.0f) at 8K", two, one)
	}
	if one-two < 0.2*one {
		t.Errorf("parallel PIO gain only %.1f%%, expected substantial", (one-two)/one*100)
	}
}

// Extension: a third bus-sharing rail cannot add bandwidth on a
// bus-limited host.
func TestShapeExtRails(t *testing.T) {
	fig := buildFig(t, "ext-rails")
	two := seriesY(t, fig, "2 rails split", 8<<20)
	three := seriesY(t, fig, "3 rails split", 8<<20)
	if three > two*1.02 {
		t.Errorf("3 rails (%.0f) beat 2 rails (%.0f): bus model broken", three, two)
	}
	if three < two*0.9 {
		t.Errorf("3 rails (%.0f) catastrophically below 2 rails (%.0f)", three, two)
	}
}

// Extension: under competing small-message traffic the strategy
// generations keep their ordering: split(+dyn) < aggrail < balance.
func TestShapeExtMixed(t *testing.T) {
	fig := buildFig(t, "ext-mixed")
	x := 2000
	bal := seriesY(t, fig, "balance", x)
	agg := seriesY(t, fig, "aggrail", x)
	spl := seriesY(t, fig, "split", x)
	dyn := seriesY(t, fig, "split-dyn", x)
	if !(spl < agg && agg < bal) {
		t.Errorf("ordering broken: split=%.0f aggrail=%.0f balance=%.0f", spl, agg, bal)
	}
	if dyn > spl*1.15 {
		t.Errorf("split-dyn (%.0f) far behind split (%.0f)", dyn, spl)
	}
}
