// Benchmark harness: one testing.B benchmark per evaluation figure of
// the paper (the paper has no tables; Figures 2-7 are its entire
// evaluation), plus ablation benchmarks for the design knobs (parallel
// PIO, a third rail, the aggregation threshold, the minimum stripping
// chunk) and microbenchmarks of the hot code paths.
//
// Figure benchmarks run the full simulated sweep per iteration and
// report the headline metrics of the corresponding figure via
// b.ReportMetric (latencies in us, bandwidths in MB/s), so
// `go test -bench .` regenerates the paper's headline numbers;
// `nmad-bench -check` compares them with the paper's claims, and
// `nmad-bench` prints the complete series (every curve, every size).
package newmad_test

import (
	"testing"

	"newmad"
	"newmad/internal/bench"
	"newmad/internal/core"
	"newmad/internal/simnet"
)

var quality = bench.Quality{Warmup: 2, Iters: 6}

func metricAt(b *testing.B, fig *bench.Figure, series string, x int, name string) {
	b.Helper()
	for _, s := range fig.Series {
		if s.Name != series {
			continue
		}
		if y, ok := s.Y(x); ok {
			if fig.YLabel == "us" {
				y /= 1e3
			}
			b.ReportMetric(y, name)
			return
		}
	}
	b.Fatalf("series %q x=%d not found in %s", series, x, fig.ID)
}

func benchFigure(b *testing.B, id string, report func(*testing.B, *bench.Figure)) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Build(id, quality)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, fig)
		}
	}
}

// BenchmarkFig2a regenerates Figure 2(a): Myri-10G latency (paper: 2.8 us
// regular, aggregation recovering the multi-segment overhead).
func BenchmarkFig2a(b *testing.B) {
	benchFigure(b, "fig2a", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "regular", 4, "us/4B-regular")
		metricAt(b, fig, "4-segments", 4<<10, "us/4K-4seg")
		metricAt(b, fig, "4-segments+aggreg", 4<<10, "us/4K-4seg-agg")
	})
}

// BenchmarkFig2b regenerates Figure 2(b): Myri-10G bandwidth (paper:
// ~1200 MB/s peak).
func BenchmarkFig2b(b *testing.B) {
	benchFigure(b, "fig2b", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "regular", 8<<20, "MBps/8M-regular")
		metricAt(b, fig, "4-segments", 128<<10, "MBps/128K-4seg")
	})
}

// BenchmarkFig3a regenerates Figure 3(a): Quadrics latency (paper: 1.7 us).
func BenchmarkFig3a(b *testing.B) {
	benchFigure(b, "fig3a", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "regular", 4, "us/4B-regular")
		metricAt(b, fig, "2-segments", 256, "us/256B-2seg")
		metricAt(b, fig, "2-segments+aggreg", 256, "us/256B-2seg-agg")
	})
}

// BenchmarkFig3b regenerates Figure 3(b): Quadrics bandwidth (paper:
// ~850 MB/s peak).
func BenchmarkFig3b(b *testing.B) {
	benchFigure(b, "fig3b", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "regular", 8<<20, "MBps/8M-regular")
	})
}

// BenchmarkFig4a regenerates Figure 4(a): greedy balancing latency with 2
// segments (paper: balancing loses below ~16 KB total).
func BenchmarkFig4a(b *testing.B) {
	benchFigure(b, "fig4a", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "2-seg balanced", 1<<10, "us/1K-balanced")
		metricAt(b, fig, "2-agg over quadrics", 1<<10, "us/1K-quad-only")
		metricAt(b, fig, "2-seg balanced", 16<<10, "us/16K-balanced")
		metricAt(b, fig, "2-agg over myri", 16<<10, "us/16K-myri-only")
	})
}

// BenchmarkFig4b regenerates Figure 4(b): greedy balancing bandwidth with
// 2 segments (paper: 1675 MB/s aggregate vs 1200 best single rail).
func BenchmarkFig4b(b *testing.B) {
	benchFigure(b, "fig4b", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "2-seg balanced", 8<<20, "MBps/8M-balanced")
		metricAt(b, fig, "2-agg over myri", 8<<20, "MBps/8M-myri-only")
	})
}

// BenchmarkFig5a regenerates Figure 5(a): 4-segment latency.
func BenchmarkFig5a(b *testing.B) {
	benchFigure(b, "fig5a", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "4-seg balanced", 1<<10, "us/1K-balanced")
		metricAt(b, fig, "4-seg balanced", 16<<10, "us/16K-balanced")
	})
}

// BenchmarkFig5b regenerates Figure 5(b): 4-segment bandwidth.
func BenchmarkFig5b(b *testing.B) {
	benchFigure(b, "fig5b", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "4-seg balanced", 8<<20, "MBps/8M-balanced")
	})
}

// BenchmarkFig6 regenerates Figure 6: small messages aggregated on the
// fastest NIC; the reported gap to Quadrics-only is the Myri polling tax.
func BenchmarkFig6(b *testing.B) {
	benchFigure(b, "fig6", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "2-seg aggrail", 4, "us/4B-aggrail")
		metricAt(b, fig, "2-agg over quadrics", 4, "us/4B-quad-only")
	})
}

// BenchmarkFig7 regenerates Figure 7: adaptive stripping (paper: hetero
// ~1675 MB/s > iso > Myri-only 1200 > Quadrics-only 850).
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, "fig7", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "hetero-split over both", 8<<20, "MBps/8M-hetero")
		metricAt(b, fig, "iso-split over both", 8<<20, "MBps/8M-iso")
		metricAt(b, fig, "one segment over myri", 8<<20, "MBps/8M-myri-only")
		metricAt(b, fig, "one segment over quadrics", 8<<20, "MBps/8M-quad-only")
	})
}

// --- Ablations (design knobs and the paper's future-work extensions) ---

// latencyOn runs a 2-segment ping-pong at one size on a configured pair.
func latencyOn(cfg newmad.SimPairConfig, size, segs int) float64 {
	p := newmad.NewSimPair(cfg)
	pts := p.SweepLatency([]int{size}, segs, quality)
	return pts[0].Y
}

// BenchmarkAblationParallelPIO measures the paper's §4 future work: a
// multi-threaded engine driving PIO transfers in parallel. With 2 PIO
// lanes, greedy balancing of small segments stops serializing on the
// CPU, moving the multi-rail crossover to smaller messages.
func BenchmarkAblationParallelPIO(b *testing.B) {
	for _, lanes := range []int{1, 2} {
		lanes := lanes
		b.Run(map[int]string{1: "1lane", 2: "2lanes"}[lanes], func(b *testing.B) {
			host := simnet.Opteron()
			host.PIOLanes = lanes
			var y float64
			for i := 0; i < b.N; i++ {
				y = latencyOn(newmad.SimPairConfig{
					Host: host, NICs: []newmad.NICParams{newmad.Myri10G(), newmad.QsNetII()},
					Strategy: newmad.StrategyBalance,
				}, 8<<10, 2)
			}
			b.ReportMetric(y/1e3, "us/8K-balanced")
		})
	}
}

// BenchmarkAblationThreeRails adds a GigE rail to the platform: the split
// strategy must still help (GigE gets a small share), not hurt.
func BenchmarkAblationThreeRails(b *testing.B) {
	configs := map[string][]newmad.NICParams{
		"2rails": {newmad.Myri10G(), newmad.QsNetII()},
		"3rails": {newmad.Myri10G(), newmad.QsNetII(), newmad.GigE()},
	}
	for _, name := range []string{"2rails", "3rails"} {
		nics := configs[name]
		b.Run(name, func(b *testing.B) {
			var y float64
			for i := 0; i < b.N; i++ {
				y = latencyOn(newmad.SimPairConfig{
					NICs: nics, Strategy: newmad.StrategySplit, Sample: true,
				}, 8<<20, 1)
			}
			b.ReportMetric(float64(8<<20)/y*1e3, "MBps/8M-split")
		})
	}
}

// BenchmarkAblationAggThreshold sweeps the aggregation threshold: too
// small wastes per-packet overhead, too large wastes memcpy bandwidth.
func BenchmarkAblationAggThreshold(b *testing.B) {
	for _, kb := range []int{4, 16, 64} {
		kb := kb
		b.Run(map[int]string{4: "4K", 16: "16K", 64: "64K"}[kb], func(b *testing.B) {
			var y float64
			for i := 0; i < b.N; i++ {
				y = latencyOn(newmad.SimPairConfig{
					NICs: []newmad.NICParams{newmad.Myri10G()}, Strategy: newmad.StrategyAggreg,
					AggThreshold: kb << 10,
				}, 8<<10, 4)
			}
			b.ReportMetric(y/1e3, "us/8K-4seg")
		})
	}
}

// BenchmarkAblationMinChunk sweeps the minimum stripping chunk: very
// small chunks fall back into the PIO regime, very large ones prevent
// splitting mid-size messages.
func BenchmarkAblationMinChunk(b *testing.B) {
	for _, kb := range []int{4, 16, 128} {
		kb := kb
		b.Run(map[int]string{4: "4K", 16: "16K", 128: "128K"}[kb], func(b *testing.B) {
			var y float64
			for i := 0; i < b.N; i++ {
				y = latencyOn(newmad.SimPairConfig{
					NICs:     []newmad.NICParams{newmad.Myri10G(), newmad.QsNetII()},
					Strategy: newmad.StrategySplit, Sample: true, MinChunk: kb << 10,
				}, 256<<10, 1)
			}
			b.ReportMetric(float64(256<<10)/y*1e3, "MBps/256K-split")
		})
	}
}

// --- Microbenchmarks of the hot code paths (real time, -benchmem) ---

func BenchmarkHeaderEncode(b *testing.B) {
	h := core.Header{Kind: core.KData, Tag: 1, MsgID: 2, SegLen: 4096, MsgLen: 4096, MsgSegs: 1}
	buf := make([]byte, core.HeaderLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.EncodeHeader(buf, &h)
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	h := core.Header{Kind: core.KData, Tag: 1, MsgID: 2, SegLen: 4096, MsgLen: 4096, MsgSegs: 1}
	buf := make([]byte, core.HeaderLen)
	core.EncodeHeader(buf, &h)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecodeHeader(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketMarshal4K(b *testing.B) {
	p := &core.Packet{
		Hdr:     core.Header{Kind: core.KData, Tag: 1, MsgSegs: 1, SegLen: 4096, MsgLen: 4096},
		Payload: make([]byte, 4096),
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkUnmarshal4K(b *testing.B) {
	p := &core.Packet{
		Hdr:     core.Header{Kind: core.KData, Tag: 1, MsgSegs: 1, SegLen: 4096, MsgLen: 4096},
		Payload: make([]byte, 4096),
	}
	buf := p.Marshal()
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtMixed regenerates the ext-mixed extension figure: bulk
// completion under competing small-message traffic, per strategy.
func BenchmarkExtMixed(b *testing.B) {
	benchFigure(b, "ext-mixed", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "balance", 2000, "us/bulk-balance")
		metricAt(b, fig, "aggrail", 2000, "us/bulk-aggrail")
		metricAt(b, fig, "split", 2000, "us/bulk-split")
		metricAt(b, fig, "split-dyn", 2000, "us/bulk-splitdyn")
	})
}

// BenchmarkExtPIOFigure regenerates ext-pio (the §4 future-work figure).
func BenchmarkExtPIOFigure(b *testing.B) {
	benchFigure(b, "ext-pio", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "1 PIO lane(s)", 8<<10, "us/8K-1lane")
		metricAt(b, fig, "2 PIO lane(s)", 8<<10, "us/8K-2lanes")
	})
}

// BenchmarkExtRailsFigure regenerates ext-rails (third-rail extension).
func BenchmarkExtRailsFigure(b *testing.B) {
	benchFigure(b, "ext-rails", func(b *testing.B, fig *bench.Figure) {
		metricAt(b, fig, "2 rails split", 8<<20, "MBps/8M-2rails")
		metricAt(b, fig, "3 rails split", 8<<20, "MBps/8M-3rails")
	})
}
