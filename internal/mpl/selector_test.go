package mpl

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// sampledTwoRail is the rank-0 rail model sampled on the 8-rank
// Myri-10G + QsNetII mesh (internal/bench/testdata/
// sampled-cluster-profiles.txt, n0->n1): 2.05 GB/s summed, 2213 ns
// best latency, 16 KiB smallest eager limit.
func sampledTwoRail() []core.Profile {
	return []core.Profile{
		{Name: "myri10g", Latency: 3260 * time.Nanosecond, Bandwidth: 1199922025.931, EagerMax: 32 << 10, PIOMax: 8 << 10},
		{Name: "qsnet2", Latency: 2213 * time.Nanosecond, Bandwidth: 849970638.396, EagerMax: 16 << 10, PIOMax: 4 << 10},
	}
}

// choose is the selector's choice for one operation of bytes total
// payload (the whole gathered buffer for allgather).
func choose(s Selector, op string, ranks, bytes int) Algo {
	cost := map[string]costFn{"bcast": bcastCost, "allreduce": allreduceCost, "allgather": allgatherCost}[op]
	return s.pick(ranks, bytes, cost)
}

// TestSelectorSampledTwoRail pins the choices the sampled two-rail model
// must make at 8 ranks: the ring Allreduce already wins at 32 KiB, while
// a 32 KiB Bcast stays on the tree (3 hops of 32 KiB beat 8 hops of
// 16 KiB chunks) and only a large Bcast pipelines.
func TestSelectorSampledTwoRail(t *testing.T) {
	s := SelectorFromProfiles(sampledTwoRail())
	for _, tc := range []struct {
		op    string
		bytes int
		want  Algo
	}{
		{"allreduce", 32 << 10, AlgoPipeline},
		{"allreduce", 64 << 10, AlgoPipeline},
		{"bcast", 32 << 10, AlgoTree},
		{"bcast", 512 << 10, AlgoPipeline},
	} {
		if got := choose(s, tc.op, 8, tc.bytes); got != tc.want {
			t.Errorf("%s %d B on 8 ranks: %v, want %v", tc.op, tc.bytes, got, tc.want)
		}
	}
	if s.Chunk > 16<<10 {
		t.Errorf("Chunk %d exceeds the smallest rail EagerMax %d", s.Chunk, 16<<10)
	}
}

// TestSelectorChoiceFlipsOnce: past the linear regime each operation's
// choice between tree and pipeline changes at most once as the payload
// grows — the selector has one crossover per operation, not a patchwork.
func TestSelectorChoiceFlipsOnce(t *testing.T) {
	s := SelectorFromProfiles(sampledTwoRail())
	for _, op := range []string{"bcast", "allreduce", "allgather"} {
		for _, ranks := range []int{3, 4, 8, 16, 64} {
			flips, prev := 0, AlgoAuto
			for n := s.SmallMax + 8; n <= 8<<20; n += 1 << 10 {
				a := choose(s, op, ranks, n)
				if prev != AlgoAuto && a != prev {
					flips++
				}
				prev = a
			}
			if flips > 1 {
				t.Errorf("%s on %d ranks: choice flips %d times past SmallMax", op, ranks, flips)
			}
		}
	}
}

// TestSelectorDigestCoversModel: two selectors whose size thresholds
// coincide but whose latency models differ choose differently for some
// input, so their digests must differ too.
func TestSelectorDigestCoversModel(t *testing.T) {
	a := SelectorFromProfiles([]core.Profile{{Latency: 100 * time.Nanosecond, Bandwidth: 1e9, EagerMax: 32 << 10}})
	b := SelectorFromProfiles([]core.Profile{{Latency: 150 * time.Nanosecond, Bandwidth: 1e9, EagerMax: 32 << 10}})
	if a.SmallMax != b.SmallMax || a.Chunk != b.Chunk {
		t.Fatalf("thresholds differ (%+v vs %+v); the test needs equal ones", a, b)
	}
	if a.Digest() == b.Digest() {
		t.Fatalf("digest %016x ignores the latency model", a.Digest())
	}
}

// TestAdaptiveRefitCarriesModel: the adaptive re-fit broadcast delivers
// rank 0's fitted selector — thresholds and model alike — unchanged to
// every rank.
func TestAdaptiveRefitCarriesModel(t *testing.T) {
	const n = 3
	engs := make([]*core.Engine, n)
	gates := make([][]*core.Gate, n)
	for i := range engs {
		engs[i] = core.New(core.Config{Strategy: strategy.Must("balance")})
		gates[i] = make([]*core.Gate, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi := engs[i].NewGate(fmt.Sprintf("r%d", j))
			gj := engs[j].NewGate(fmt.Sprintf("r%d", i))
			for k, prof := range sampledTwoRail() {
				a, b := memdrv.Pair(fmt.Sprintf("%d-%d.%d", i, j, k), prof)
				gi.AddRail(a)
				gj.AddRail(b)
			}
			gates[i][j], gates[j][i] = gi, gj
		}
	}
	comms := make([]*Comm, n)
	for i := range comms {
		c, err := New(engs[i], i, gates[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetAdaptive(1 << 20) // one re-fit, before the first collective
		comms[i] = c
	}
	// Rank 0 fits from these rails before any traffic touches their
	// estimators, so the fit equals the priors' model.
	want := SelectorFromRails(gates[0][1].Rails())
	var wg sync.WaitGroup
	for _, c := range comms {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.BarrierCtx(context.Background()); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		}()
	}
	wg.Wait()
	for _, c := range comms {
		got := c.Selector()
		if got.Epoch != 1 {
			t.Fatalf("rank %d: epoch %d, want 1", c.Rank(), got.Epoch)
		}
		w := want
		w.Epoch = got.Epoch
		if !reflect.DeepEqual(got, w) {
			t.Errorf("rank %d after re-fit: %+v, want %+v", c.Rank(), got, w)
		}
	}
}
