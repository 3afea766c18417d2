package bench

import (
	"bytes"
	"context"
	"testing"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/strategy"
)

// TestHedgedTailBeatsUnhedgedUnderJitter pins the headline tail-latency
// claim of the hedged scheduler on the DES: under symmetric 30% jitter
// the hedged p99 is strictly better than the unhedged p99, hedges
// actually fired, and at most one duplicate was spent per send (dup
// bytes never exceed primary bytes). Same numbers CheckBudgets gates in
// the pinned perf report.
func TestHedgedTailBeatsUnhedgedUnderJitter(t *testing.T) {
	f := figureNamed("ext-hedge")
	jitter := scenario("jitter-30%", f.at)
	unhedged := f.series[0].runChaos(jitter, f.size, f.iters)
	hedged := f.series[1].runChaos(jitter, f.size, f.iters)
	st := hedged.Hedge
	if len(unhedged.Errs) != 0 || len(hedged.Errs) != 0 {
		t.Fatalf("errs: unhedged %v, hedged %v", unhedged.Errs, hedged.Errs)
	}
	if st.Hedged == 0 {
		t.Fatal("jitter never triggered a hedge")
	}
	if st.DupBytes > st.PrimaryBytes {
		t.Fatalf("dup bytes %d exceed primary bytes %d", st.DupBytes, st.PrimaryBytes)
	}
	up99 := percentile(unhedged.Makespans, 0.99)
	hp99 := percentile(hedged.Makespans, 0.99)
	if hp99 >= up99 {
		t.Errorf("hedged p99 %.0fns not better than unhedged %.0fns", hp99, up99)
	}
}

// TestAdaptiveSplitRecoversDegradedRail pins the adaptive-split claims:
// estimator-driven weights beat the static profile split once rail 0 is
// asymmetrically degraded, and cost at most 5% when the profiles are
// right (the stationary guard).
func TestAdaptiveSplitRecoversDegradedRail(t *testing.T) {
	f := figureNamed("ext-adaptive")
	for _, tc := range []struct {
		sc      chaosScenario
		degrade bool
	}{{scenario("baseline", f.at), false}, {scenario("degrade-rail0-25%", f.at), true}} {
		static := f.series[0].runChaos(tc.sc, f.size, f.iters)
		adaptive := f.series[1].runChaos(tc.sc, f.size, f.iters)
		if len(static.Errs) != 0 || len(adaptive.Errs) != 0 {
			t.Fatalf("%s: errs: static %v, adaptive %v", tc.sc.Name, static.Errs, adaptive.Errs)
		}
		sp50 := percentile(static.Makespans, 0.50)
		ap50 := percentile(adaptive.Makespans, 0.50)
		if tc.degrade {
			if ap50 >= sp50 {
				t.Errorf("%s: adaptive p50 %.0fns not better than static %.0fns", tc.sc.Name, ap50, sp50)
			}
		} else if ap50 > sp50*1.05 {
			t.Errorf("%s: adaptive p50 %.0fns worse than static %.0fns by >5%%", tc.sc.Name, ap50, sp50)
		}
	}
}

// TestHedgedTransferByteVerified runs hedged small sends under jitter on
// the DES and byte-verifies every delivery: racing a duplicate down the
// second rail must never corrupt or double-deliver a payload, whichever
// copy wins.
func TestHedgedTransferByteVerified(t *testing.T) {
	const iters = 40
	size := figureNamed("ext-hedge").size
	w := des.NewWorld()
	top := chaosPairTopo(w)
	var hs []*strategy.Hedge
	c := ClusterFromTopo(top, ClusterConfig{Strategy: func() core.Strategy {
		h := strategy.NewHedge(strategy.Must("split-dyn-adaptive"))
		hs = append(hs, h)
		return h
	}})
	got := make([][]byte, iters)
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		for it := 0; it < iters; it++ {
			ctx := WithSimTimeout(context.Background(), p, chaosOpTimeout)
			if err := comm.BarrierCtx(ctx); err != nil {
				t.Errorf("rank %d iter %d fence: %v", comm.Rank(), it, err)
				return
			}
			want := bytes.Repeat([]byte{byte(it + 1)}, size)
			switch comm.Rank() {
			case 0:
				if err := comm.SendCtx(ctx, 1, 7, want); err != nil {
					t.Errorf("iter %d send: %v", it, err)
					return
				}
			case 1:
				buf := make([]byte, size)
				if _, err := comm.RecvCtx(ctx, 0, 7, buf); err != nil {
					t.Errorf("iter %d recv: %v", it, err)
					return
				}
				got[it] = buf
			}
		}
	})
	scenario("jitter-30%", 0).Build(top).Arm(w)
	w.Run()
	if t.Failed() {
		return
	}
	for it := 0; it < iters; it++ {
		want := bytes.Repeat([]byte{byte(it + 1)}, size)
		if !bytes.Equal(got[it], want) {
			t.Fatalf("iter %d payload corrupted", it)
		}
	}
	var hedgedN uint64
	for _, h := range hs {
		hedgedN += h.Stats().Hedged
	}
	if hedgedN == 0 {
		t.Fatal("no duplicate ever raced: the byte check proved nothing")
	}
}
