package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// Allocation-regression tests for the zero-allocation hot path: after a
// warm-up that fills the pools and grows every reusable slice to its
// steady-state capacity, a full exchange over the in-memory driver must
// not allocate at all. testing.AllocsPerRun truncates (total allocs /
// runs), so a handful of stray pool refills across a thousand runs still
// reads as zero while a real per-op allocation reads as >= 1.

const allocRuns = 1000

// benchDuo is newDuo for benchmarks (testing.TB instead of *testing.T).
func benchDuo(tb testing.TB, rails int, strat func() core.Strategy) *duo {
	tb.Helper()
	d := &duo{
		engA: core.New(core.Config{Strategy: strat()}),
		engB: core.New(core.Config{Strategy: strat()}),
	}
	d.gateAB = d.engA.NewGate("B")
	d.gateBA = d.engB.NewGate("A")
	for i := 0; i < rails; i++ {
		a, b := memdrv.Pair(fmt.Sprintf("r%d", i), memdrv.DefaultProfile())
		d.gateAB.AddRail(a)
		d.gateBA.AddRail(b)
		d.drvsA = append(d.drvsA, a)
		d.drvsB = append(d.drvsB, b)
	}
	return d
}

// pumpDone spins until every request reaches a terminal state. memdrv
// delivers synchronously, so this normally exits on the first check. It
// does not Wait: waiting on a still-pending request allocates its
// completion channel, which would break the zero-allocation figures.
func pumpDone(d *duo, reqs ...core.Request) {
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

func TestZeroAllocPingpongSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	d := newDuo(t, 1, balanced)
	ping := fill(1024, 3)
	pong := fill(1024, 4)
	recvB := make([]byte, 1024)
	recvA := make([]byte, 1024)
	round := func() {
		rr := d.gateBA.Irecv(7, recvB)
		sr := d.gateAB.Isend(7, ping)
		pumpDone(d, sr, rr)
		rr2 := d.gateAB.Irecv(9, recvA)
		sr2 := d.gateBA.Isend(9, pong)
		pumpDone(d, sr2, rr2)
		if sr.Err() != nil || rr.Err() != nil || sr2.Err() != nil || rr2.Err() != nil {
			t.Fatal("exchange failed")
		}
		sr.Recycle()
		rr.Recycle()
		sr2.Recycle()
		rr2.Recycle()
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(allocRuns, round); avg != 0 {
		t.Errorf("steady-state pingpong allocates %.2f times per round, want 0", avg)
	}
}

// TestWaitCompletedAllocatesNothing: Engine.Wait on a request that has
// already completed — the common case under load — returns through a
// shared closed channel instead of making one per request. Each round
// runs a fresh (pooled) send and receive to completion, then waits on
// both.
func TestWaitCompletedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	d := newDuo(t, 1, balanced)
	msg := fill(64, 5)
	recv := make([]byte, 64)
	round := func() {
		rr := d.gateBA.Irecv(3, recv)
		sr := d.gateAB.Isend(3, msg)
		pumpDone(d, sr, rr)
		if err := d.engA.Wait(sr); err != nil {
			t.Fatalf("Wait on a completed SendReq: %v", err)
		}
		if err := d.engB.Wait(rr); err != nil {
			t.Fatalf("Wait on a completed RecvReq: %v", err)
		}
		sr.Recycle()
		rr.Recycle()
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(allocRuns, round); avg != 0 {
		t.Errorf("exchange + Wait on the completed requests allocates %.2f times per round, want 0", avg)
	}
}

func TestZeroAllocSmallMessageAggregation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	d := newDuo(t, 1, func() core.Strategy { return strategy.NewAggreg(0) })
	const k = 4
	var msgs, recvs [k][]byte
	for i := range msgs {
		msgs[i] = fill(256, byte(i+1))
		recvs[i] = make([]byte, 256)
	}
	var srs [k]*core.SendReq
	var rrs [k]*core.RecvReq
	round := func() {
		for i := 0; i < k; i++ {
			rrs[i] = d.gateBA.Irecv(5, recvs[i])
		}
		// Hold the rail so submissions pile up in the backlog, then
		// release: the strategy flushes the pile as aggregated packets.
		d.drvsA[0].HoldCompletions()
		for i := 0; i < k; i++ {
			srs[i] = d.gateAB.Isend(5, msgs[i])
		}
		d.drvsA[0].ReleaseCompletions()
		for i := 0; i < k; i++ {
			pumpDone(d, srs[i], rrs[i])
			if srs[i].Err() != nil || rrs[i].Err() != nil {
				t.Fatal("aggregated exchange failed")
			}
			srs[i].Recycle()
			rrs[i].Recycle()
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(allocRuns, round); avg != 0 {
		t.Errorf("steady-state aggregation allocates %.2f times per round, want 0", avg)
	}
}

// BenchmarkMemdrvPingpong is the headline latency benchmark over the
// synchronous in-memory driver: one full request/reply exchange per
// iteration, allocs/op pinned at zero by TestZeroAllocPingpongSteadyState.
func BenchmarkMemdrvPingpong(b *testing.B) {
	for _, size := range []int{64, 1024, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			d := benchDuo(b, 1, balanced)
			ping := fill(size, 3)
			pong := fill(size, 4)
			recvB := make([]byte, size)
			recvA := make([]byte, size)
			b.ReportAllocs()
			b.SetBytes(int64(2 * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr := d.gateBA.Irecv(7, recvB)
				sr := d.gateAB.Isend(7, ping)
				pumpDone(d, sr, rr)
				rr2 := d.gateAB.Irecv(9, recvA)
				sr2 := d.gateBA.Isend(9, pong)
				pumpDone(d, sr2, rr2)
				sr.Recycle()
				rr.Recycle()
				sr2.Recycle()
				rr2.Recycle()
			}
		})
	}
}

// BenchmarkSmallMessageAggregation measures the paper's optimization
// window: k small sends piled behind a busy rail, flushed as aggregates.
func BenchmarkSmallMessageAggregation(b *testing.B) {
	d := benchDuo(b, 1, func() core.Strategy { return strategy.NewAggreg(0) })
	const k = 4
	var msgs, recvs [k][]byte
	for i := range msgs {
		msgs[i] = fill(256, byte(i+1))
		recvs[i] = make([]byte, 256)
	}
	var srs [k]*core.SendReq
	var rrs [k]*core.RecvReq
	b.ReportAllocs()
	b.SetBytes(k * 256)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < k; i++ {
			rrs[i] = d.gateBA.Irecv(5, recvs[i])
		}
		d.drvsA[0].HoldCompletions()
		for i := 0; i < k; i++ {
			srs[i] = d.gateAB.Isend(5, msgs[i])
		}
		d.drvsA[0].ReleaseCompletions()
		for i := 0; i < k; i++ {
			pumpDone(d, srs[i], rrs[i])
			srs[i].Recycle()
			rrs[i].Recycle()
		}
	}
}
