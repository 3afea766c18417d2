package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestTreeBcastBeatsLinear is the acceptance check for the collective
// algorithms: on the simulated testbed the binomial tree broadcast must
// beat the linear fan-out for 8 and 16 ranks once the payload leaves the
// latency-bound regime (where the model's cheap sends make fan-out
// optimal — which is exactly why the selector keeps linear there).
func TestTreeBcastBeatsLinear(t *testing.T) {
	q := Fast()
	for _, ranks := range []int{8, 16} {
		lin := collMakespan(collCluster(ranks), bcast(mpl.AlgoLinear), 512<<10, q)
		tree := collMakespan(collCluster(ranks), bcast(mpl.AlgoTree), 512<<10, q)
		t.Logf("%d ranks, 512 KiB bcast: linear %.2f us, tree %.2f us", ranks, lin, tree)
		if tree >= lin {
			t.Errorf("%d ranks: tree bcast (%.2f us) not faster than linear (%.2f us)", ranks, tree, lin)
		}
	}
}

// TestSelectorMatchesBestRegime checks the seeded selector is never
// grossly wrong: auto must be within 1.3x of the best forced algorithm at
// both ends of the size range.
func TestSelectorMatchesBestRegime(t *testing.T) {
	q := Fast()
	const ranks = 8
	for _, size := range []int{2 << 10, 2 << 20} {
		best := -1.0
		for _, a := range []mpl.Algo{mpl.AlgoLinear, mpl.AlgoTree, mpl.AlgoPipeline} {
			v := collMakespan(collCluster(ranks), bcast(a), size, q)
			if best < 0 || v < best {
				best = v
			}
		}
		auto := collMakespan(collCluster(ranks), bcast(mpl.AlgoAuto), size, q)
		t.Logf("%7d B: auto %.2f us, best forced %.2f us", size, auto, best)
		if auto > 1.3*best {
			t.Errorf("size %d: auto bcast %.2f us, best forced algorithm %.2f us", size, auto, best)
		}
	}
}

// collCluster is the collective testbed of the ext-coll figure: one
// rack of ranks hosts over Myri-10G + Quadrics under the split strategy.
func collCluster(ranks int) *Cluster {
	return ClusterFromTopo(mesh(des.NewWorld(), bothRails(), 0, ranks), ClusterConfig{Strategy: splitStrat})
}

func refSum(ranks, elems int) []byte {
	out := make([]byte, elems*8)
	for r := 0; r < ranks; r++ {
		for i := 0; i < elems; i++ {
			s := int64(binary.LittleEndian.Uint64(out[i*8:])) + int64(r*100+i)
			binary.LittleEndian.PutUint64(out[i*8:], uint64(s))
		}
	}
	return out
}

// TestCollStressSimdrv is the simulated-rail half of the -race stress
// acceptance: 8 ranks loop Allreduce and Alltoall over simdrv across
// eager and rendezvous payloads, verifying byte-exact results against
// the sequential reference every iteration.
func TestCollStressSimdrv(t *testing.T) {
	const ranks = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	cluster := collCluster(ranks)
	elemSizes := []int{1, 100, 9 << 10}
	blockSizes := []int{16, 6 << 10}
	cluster.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		for it := 0; it < iters; it++ {
			elems := elemSizes[it%len(elemSizes)]
			send := make([]byte, elems*8)
			for i := 0; i < elems; i++ {
				binary.LittleEndian.PutUint64(send[i*8:], uint64(int64(comm.Rank()*100+i)))
			}
			recv := make([]byte, len(send))
			comm.Allreduce(send, recv, mpl.OpSumInt64())
			if !bytes.Equal(recv, refSum(ranks, elems)) {
				t.Errorf("rank %d iter %d: simdrv allreduce mismatch", comm.Rank(), it)
				return
			}
			n := blockSizes[it%len(blockSizes)]
			a2aSend := make([]byte, n*ranks)
			for r := 0; r < ranks; r++ {
				for i := 0; i < n; i++ {
					a2aSend[r*n+i] = byte(comm.Rank()*13 + r*7 + i)
				}
			}
			a2aRecv := make([]byte, n*ranks)
			comm.Alltoall(a2aSend, a2aRecv)
			for r := 0; r < ranks; r++ {
				for i := 0; i < n; i++ {
					if a2aRecv[r*n+i] != byte(r*13+comm.Rank()*7+i) {
						t.Errorf("rank %d iter %d: simdrv alltoall block %d corrupt", comm.Rank(), it, r)
						return
					}
				}
			}
		}
	})
	cluster.W.Run()
}

// TestCollRankSweepSimdrv covers the 2–16 rank acceptance range on
// simulated rails: one verified Allreduce, Alltoall and Barrier per rank
// count, auto algorithm selection.
func TestCollRankSweepSimdrv(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8, 16} {
		ranks := ranks
		t.Run(fmt.Sprintf("r%d", ranks), func(t *testing.T) {
			cluster := collCluster(ranks)
			const elems = 100
			cluster.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
				comm.Barrier()
				send := make([]byte, elems*8)
				for i := 0; i < elems; i++ {
					binary.LittleEndian.PutUint64(send[i*8:], uint64(int64(comm.Rank()*100+i)))
				}
				recv := make([]byte, len(send))
				comm.Allreduce(send, recv, mpl.OpSumInt64())
				if !bytes.Equal(recv, refSum(ranks, elems)) {
					t.Errorf("rank %d/%d: allreduce mismatch", comm.Rank(), ranks)
				}
				const n = 96
				a2aSend := make([]byte, n*ranks)
				for r := 0; r < ranks; r++ {
					for i := 0; i < n; i++ {
						a2aSend[r*n+i] = byte(comm.Rank()*13 + r*7 + i)
					}
				}
				a2aRecv := make([]byte, n*ranks)
				comm.Alltoall(a2aSend, a2aRecv)
				for r := 0; r < ranks; r++ {
					for i := 0; i < n; i++ {
						if a2aRecv[r*n+i] != byte(r*13+comm.Rank()*7+i) {
							t.Errorf("rank %d/%d: alltoall corrupt", comm.Rank(), ranks)
							return
						}
					}
				}
				comm.Barrier()
			})
			cluster.W.Run()
		})
	}
}

// TestNonblockingCollectiveSimdrv drives two outstanding collectives per
// rank through the virtual-time waiter.
func TestNonblockingCollectiveSimdrv(t *testing.T) {
	const ranks = 4
	cluster := collCluster(ranks)
	cluster.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		buf := make([]byte, 2<<10)
		if comm.Rank() == 2 {
			for i := range buf {
				buf[i] = byte(i * 3)
			}
		}
		bc := comm.IBcast(2, buf)
		bar := comm.IBarrier()
		if err := bc.Wait(); err != nil {
			t.Errorf("rank %d: ibcast: %v", comm.Rank(), err)
		}
		if err := bar.Wait(); err != nil {
			t.Errorf("rank %d: ibarrier: %v", comm.Rank(), err)
		}
		for i := range buf {
			if buf[i] != byte(i*3) {
				t.Errorf("rank %d: ibcast corrupt", comm.Rank())
				return
			}
		}
	})
	cluster.W.Run()
}

// TestSampledClusterUniformSelector regresses a real bug: with per-pair
// sampling, each rank's own profiles differ slightly, and ranks seeding
// selectors independently disagreed on the pipeline chunk size — chunks
// then cross-matched and the chained broadcast failed on capacity. The
// cluster must distribute one seeded selector.
func TestSampledClusterUniformSelector(t *testing.T) {
	const ranks = 4
	cluster := NewCluster(ClusterConfig{
		Nodes:    ranks,
		NICs:     []simnet.NICParams{simnet.Myri10G(), simnet.QsNetII()},
		Strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
		Sample:   true,
	})
	cluster.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		sel := comm.Selector()
		sel.Force = mpl.AlgoPipeline
		comm.SetSelector(sel)
		buf := make([]byte, 1<<20)
		if comm.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i * 5)
			}
		}
		comm.Bcast(0, buf)
		for i := range buf {
			if buf[i] != byte(i*5) {
				t.Errorf("rank %d: sampled-cluster pipeline bcast corrupt", comm.Rank())
				return
			}
		}
	})
	cluster.W.Run()
}

func TestExtCollFigureBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure build is slow")
	}
	q := Quality{Warmup: 1, Iters: 1, Verify: true}
	fig, err := Build("ext-coll", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
		for _, pt := range s.Points {
			if pt.Y <= 0 {
				t.Fatalf("series %q: non-positive makespan at %d", s.Name, pt.X)
			}
		}
	}
}
