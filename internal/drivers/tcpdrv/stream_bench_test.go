package tcpdrv

import (
	"math"
	"math/rand"
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// BenchmarkTCPStreamAggregation streams messages between two engines
// over one loopback tcp rail with the aggreg strategy, 64 in flight,
// sizes seeded log-uniform from 16 B to 32 KiB: the throughput path on
// which aggregation decides how many messages one writev carries. It
// reports packets per message beside allocs/op.
func BenchmarkTCPStreamAggregation(b *testing.B) {
	const window, lo, hi = 64, 16, 32 << 10
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, 1024)
	for i := range sizes {
		sizes[i] = int(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo))))
	}
	client, server := dialPair(b, Options{})
	engA := core.New(core.Config{Strategy: strategy.NewAggreg(0)})
	engB := core.New(core.Config{Strategy: strategy.NewAggreg(0)})
	b.Cleanup(func() {
		engA.Close()
		engB.Close()
	})
	ga, gb := engA.NewGate("B"), engB.NewGate("A")
	ga.AddRail(client)
	gb.AddRail(server)

	var srs [window]*core.SendReq
	var rrs [window]*core.RecvReq
	var sbufs, rbufs [window][]byte
	for i := range sbufs {
		sbufs[i] = make([]byte, hi)
		rbufs[i] = make([]byte, hi)
		for j := range sbufs[i] {
			sbufs[i][j] = byte(i + j)
		}
	}
	drain := func(slot int) {
		if srs[slot] == nil {
			return
		}
		if err := engA.Wait(srs[slot]); err != nil {
			b.Fatal(err)
		}
		if err := engB.Wait(rrs[slot]); err != nil {
			b.Fatal(err)
		}
		srs[slot].Recycle()
		rrs[slot].Recycle()
		srs[slot], rrs[slot] = nil, nil
	}
	pkts0, _ := ga.Rails()[0].Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		drain(slot)
		rrs[slot] = gb.Irecv(1, rbufs[slot])
		srs[slot] = ga.Isend(1, sbufs[slot][:sizes[i%len(sizes)]])
	}
	for slot := range srs {
		drain(slot)
	}
	b.StopTimer()
	pkts, _ := ga.Rails()[0].Stats()
	b.ReportMetric(float64(pkts-pkts0)/float64(b.N), "pkts/msg")
}
