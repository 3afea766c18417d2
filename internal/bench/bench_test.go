package bench

import (
	"strings"
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

func TestSegmentsSplitEvenly(t *testing.T) {
	buf := make([]byte, 100)
	segs := segments(buf, 100, 4)
	if len(segs) != 4 {
		t.Fatalf("segs = %d", len(segs))
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
	if len(segs[0]) != 25 || len(segs[3]) != 25 {
		t.Fatalf("uneven: %d %d", len(segs[0]), len(segs[3]))
	}
}

func TestSegmentsRemainderGoesLast(t *testing.T) {
	buf := make([]byte, 10)
	segs := segments(buf, 10, 3)
	if len(segs) != 3 || len(segs[0]) != 3 || len(segs[1]) != 3 || len(segs[2]) != 4 {
		t.Fatalf("segs = %v", segs)
	}
}

func TestSegmentsSingle(t *testing.T) {
	buf := make([]byte, 10)
	segs := segments(buf, 5, 1)
	if len(segs) != 1 || len(segs[0]) != 5 {
		t.Fatalf("segs = %v", segs)
	}
}

func TestPatternCheckRoundTrip(t *testing.T) {
	buf := pattern(1000, 0xA5)
	checkPayload(buf, 0xA5) // must not panic
	buf[500] ^= 0xff
	defer func() {
		if recover() == nil {
			t.Fatal("corruption not detected")
		}
	}()
	checkPayload(buf, 0xA5)
}

func TestToMBps(t *testing.T) {
	// 1 MB in 1 ms = 1000 MB/s.
	if got := toMBps(1000000, 1e6); got != 1000 {
		t.Fatalf("toMBps = %f", got)
	}
	if toMBps(100, 0) != 0 {
		t.Fatal("division by zero")
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(4, 32)
	want := []int{4, 8, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if n := len(LatencySizes()); n != 14 {
		t.Fatalf("LatencySizes has %d points", n)
	}
	if n := len(BandwidthSizes()); n != 9 {
		t.Fatalf("BandwidthSizes has %d points", n)
	}
}

func TestFmtSize(t *testing.T) {
	cases := map[int]string{4: "4", 1024: "1K", 32768: "32K", 1 << 20: "1M", 8 << 20: "8M", 1500: "1500"}
	for in, want := range cases {
		if got := fmtSize(in); got != want {
			t.Errorf("fmtSize(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFigureTableAndCSV(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "test", XLabel: "size", YLabel: "us",
		Series: []Series{
			{Name: "a", Points: []Point{{4, 1000}, {8, 2000}}},
			{Name: "b", Points: []Point{{4, 1500}, {8, 2500}}},
		},
	}
	var tbl strings.Builder
	fig.WriteTable(&tbl)
	out := tbl.String()
	for _, want := range []string{"figX", "size", "a", "b", "1.00", "2.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	fig.WriteCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "size_bytes,a,b" {
		t.Fatalf("csv header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "4,1.000,1.500") {
		t.Fatalf("csv row %q", lines[1])
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{1, 5}, {2, 9}}}
	if y, ok := s.Y(2); !ok || y != 9 {
		t.Fatal("Y lookup")
	}
	if _, ok := s.Y(99); ok {
		t.Fatal("Y found missing point")
	}
	if s.MaxY() != 9 {
		t.Fatal("MaxY")
	}
}

func TestBuildUnknownFigure(t *testing.T) {
	if _, err := Build("fig99", Fast()); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureIDsComplete(t *testing.T) {
	want := []string{
		"ext-adaptive", "ext-allreduce", "ext-chaos-coll", "ext-chaos-split", "ext-coll", "ext-hedge", "ext-mixed", "ext-pio", "ext-rails",
		"fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "fig7",
	}
	got := FigureIDs()
	if len(got) != len(want) {
		t.Fatalf("FigureIDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FigureIDs = %v, want %v", got, want)
		}
	}
}

func TestPairConfigValidation(t *testing.T) {
	for _, cfg := range []PairConfig{
		{},
		{NICs: myriRails()},
		{Strategy: func() core.Strategy { return strategy.NewFIFO(0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPair(%+v) did not panic", cfg)
				}
			}()
			NewPair(cfg)
		}()
	}
}

func TestSweepVerifiedIntegrity(t *testing.T) {
	// Run a small verified sweep on every strategy/rail combination the
	// figures use; checkPayload panics on corruption.
	p := seriesRow{strategy: "split", rails: bothRails(), sample: true}.pair()
	pts := p.SweepLatency([]int{64, 4096, 256 << 10}, 2, Quality{Warmup: 1, Iters: 2, Verify: true})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Y <= 0 {
			t.Fatalf("non-positive latency at %d: %f", pt.X, pt.Y)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	run := func() []Point {
		p := seriesRow{strategy: "balance", rails: bothRails()}.pair()
		return p.SweepLatency([]int{64, 65536}, 2, Quality{Warmup: 1, Iters: 3})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic sweep: %v vs %v", a, b)
		}
	}
}

func TestSweepLatencyMonotoneAtLargeSizes(t *testing.T) {
	p := seriesRow{strategy: "fifo", rails: myriRails()}.pair()
	pts := p.SweepLatency([]int{64 << 10, 256 << 10, 1 << 20, 4 << 20}, 1, Quality{Warmup: 1, Iters: 2})
	for i := 1; i < len(pts); i++ {
		if pts[i].Y <= pts[i-1].Y {
			t.Fatalf("latency not increasing with size: %v", pts)
		}
	}
}

func TestWritePlot(t *testing.T) {
	fig := &Figure{
		ID: "figP", Title: "plot test", YLabel: "MB/s",
		Series: []Series{
			{Name: "up", Points: []Point{{1024, 100}, {4096, 400}, {16384, 1600}}},
			{Name: "flat", Points: []Point{{1024, 50}, {4096, 50}, {16384, 50}}},
		},
	}
	var sb strings.Builder
	fig.WritePlot(&sb, 40, 10)
	out := sb.String()
	for _, want := range []string{"figP", "log-log", "* up", "+ flat", "1K", "16K"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 13 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}

	// A scenario axis is a linear index from 0: the baseline column
	// (X = 0) is drawn, and X = 1 of 0..2 lands mid-axis.
	scen := &Figure{
		ID: "figS", Title: "scenario plot", YLabel: "us", indexX: true,
		Series: []Series{{Name: "p50", Points: []Point{{0, 1000}, {1, 2000}, {2, 4000}}}},
	}
	sb.Reset()
	scen.WritePlot(&sb, 41, 10)
	cols := map[int]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if i := strings.Index(line, "|"); i >= 0 {
			for c, r := range line[i+1:] {
				if r == '*' {
					cols[c] = true
				}
			}
		}
	}
	if !cols[0] || !cols[20] || !cols[40] {
		t.Fatalf("scenario marks at columns %v, want 0, 20 and 40:\n%s", cols, sb.String())
	}
}

func TestWritePlotEmpty(t *testing.T) {
	fig := &Figure{ID: "figE", YLabel: "us"}
	var sb strings.Builder
	fig.WritePlot(&sb, 40, 10)
	if !strings.Contains(sb.String(), "(no data)") {
		t.Fatal("empty figure plot")
	}
}

func TestCheckClaimsAllPass(t *testing.T) {
	claims := CheckClaims(Fast())
	if len(claims) < 10 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if !c.OK {
			t.Errorf("claim failed: %s / %s: paper %s, measured %s", c.Figure, c.What, c.Paper, c.Measured)
		}
	}
	var sb strings.Builder
	WriteClaims(&sb, claims)
	if !strings.Contains(sb.String(), "all claims reproduced") {
		t.Fatal("claim table verdict missing")
	}
}
