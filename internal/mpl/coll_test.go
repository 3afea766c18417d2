package mpl_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/mpl"
	"newmad/internal/strategy"
)

func forced(algo mpl.Algo) mpl.Selector {
	s := mpl.DefaultSelector()
	s.Force = algo
	return s
}

func (c *cluster) setSelector(s mpl.Selector) {
	for _, cm := range c.comms {
		cm.SetSelector(s)
	}
}

// pattern fills a deterministic per-rank payload.
func pattern(rank, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rank*31 + i*7 + 1)
	}
	return b
}

var collAlgos = []mpl.Algo{mpl.AlgoAuto, mpl.AlgoLinear, mpl.AlgoTree, mpl.AlgoPipeline}

func TestBcastAlgorithms(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8} {
		for _, algo := range collAlgos {
			for _, size := range []int{0, 1, 1 << 10, 100 << 10} {
				t.Run(fmt.Sprintf("r%d/%v/%d", ranks, algo, size), func(t *testing.T) {
					c := newCluster(t, ranks)
					c.setSelector(forced(algo))
					root := ranks / 2
					want := pattern(root, size)
					c.par(t, func(cm *mpl.Comm) {
						buf := make([]byte, size)
						if cm.Rank() == root {
							copy(buf, want)
						}
						cm.Bcast(root, buf)
						if !bytes.Equal(buf, want) {
							t.Errorf("rank %d: corrupt bcast", cm.Rank())
						}
					})
				})
			}
		}
	}
}

func TestGatherTreeRoots(t *testing.T) {
	const n = 700
	for _, ranks := range []int{2, 5, 8} {
		for _, root := range []int{0, ranks - 1} {
			for _, algo := range []mpl.Algo{mpl.AlgoLinear, mpl.AlgoTree} {
				t.Run(fmt.Sprintf("r%d/root%d/%v", ranks, root, algo), func(t *testing.T) {
					c := newCluster(t, ranks)
					c.setSelector(forced(algo))
					c.par(t, func(cm *mpl.Comm) {
						var recv []byte
						if cm.Rank() == root {
							recv = make([]byte, n*ranks)
						}
						cm.Gather(root, pattern(cm.Rank(), n), recv)
						if cm.Rank() == root {
							for r := 0; r < ranks; r++ {
								if !bytes.Equal(recv[r*n:(r+1)*n], pattern(r, n)) {
									t.Errorf("gather block %d corrupt", r)
								}
							}
						}
					})
				})
			}
		}
	}
}

// refSumInt64 is the sequential reference reduction: contributions folded
// in rank order.
func refSumInt64(ranks, elems int) []byte {
	out := make([]byte, elems*8)
	for r := 0; r < ranks; r++ {
		for i := 0; i < elems; i++ {
			s := int64(binary.LittleEndian.Uint64(out[i*8:])) + int64(r*1000+i)
			binary.LittleEndian.PutUint64(out[i*8:], uint64(s))
		}
	}
	return out
}

func int64Contribution(rank, elems int) []byte {
	b := make([]byte, elems*8)
	for i := 0; i < elems; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(int64(rank*1000+i)))
	}
	return b
}

func TestReduceAgainstReference(t *testing.T) {
	const elems = 257
	for _, ranks := range []int{2, 4, 7, 8} {
		for _, algo := range []mpl.Algo{mpl.AlgoLinear, mpl.AlgoTree} {
			t.Run(fmt.Sprintf("r%d/%v", ranks, algo), func(t *testing.T) {
				c := newCluster(t, ranks)
				c.setSelector(forced(algo))
				want := refSumInt64(ranks, elems)
				c.par(t, func(cm *mpl.Comm) {
					send := int64Contribution(cm.Rank(), elems)
					var recv []byte
					if cm.Rank() == 0 {
						recv = make([]byte, len(send))
					}
					cm.Reduce(0, send, recv, mpl.OpSumInt64())
					if cm.Rank() == 0 && !bytes.Equal(recv, want) {
						t.Error("reduce differs from sequential reference")
					}
				})
			})
		}
	}
}

func TestAllreduceByteExact(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8, 16} {
		for _, tc := range []struct {
			name  string
			elems int
			algo  mpl.Algo
		}{
			{"small-tree", 3, mpl.AlgoTree},
			{"small-auto", 64, mpl.AlgoAuto},
			{"ring", 8 << 10, mpl.AlgoPipeline},
			{"large-auto", 96 << 10, mpl.AlgoAuto}, // bandwidth-bound: the model picks the ring
			{"linear", 16, mpl.AlgoLinear},
		} {
			t.Run(fmt.Sprintf("r%d/%s", ranks, tc.name), func(t *testing.T) {
				c := newCluster(t, ranks)
				c.setSelector(forced(tc.algo))
				want := refSumInt64(ranks, tc.elems)
				c.par(t, func(cm *mpl.Comm) {
					send := int64Contribution(cm.Rank(), tc.elems)
					recv := make([]byte, len(send))
					cm.Allreduce(send, recv, mpl.OpSumInt64())
					if !bytes.Equal(recv, want) {
						t.Errorf("rank %d: allreduce differs from sequential reference", cm.Rank())
					}
				})
			})
		}
	}
}

func TestAllreduceXorAndBytes(t *testing.T) {
	c := newCluster(t, 5)
	const n = 1000
	wantXor := make([]byte, n)
	wantSum := make([]byte, n)
	for r := 0; r < 5; r++ {
		p := pattern(r, n)
		for i := range p {
			wantXor[i] ^= p[i]
			wantSum[i] += p[i]
		}
	}
	c.par(t, func(cm *mpl.Comm) {
		recv := make([]byte, n)
		cm.Allreduce(pattern(cm.Rank(), n), recv, mpl.OpXor())
		if !bytes.Equal(recv, wantXor) {
			t.Errorf("rank %d xor mismatch", cm.Rank())
		}
		recv2 := make([]byte, n)
		cm.Allreduce(pattern(cm.Rank(), n), recv2, mpl.OpSumUint8())
		if !bytes.Equal(recv2, wantSum) {
			t.Errorf("rank %d byte-sum mismatch", cm.Rank())
		}
	})
}

func alltoallBlock(from, to, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(from*17 + to*5 + i + 3)
	}
	return b
}

func TestAlltoallAlgorithms(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8, 16} {
		for _, algo := range []mpl.Algo{mpl.AlgoLinear, mpl.AlgoPipeline, mpl.AlgoAuto} {
			for _, n := range []int{64, 40 << 10} {
				t.Run(fmt.Sprintf("r%d/%v/%d", ranks, algo, n), func(t *testing.T) {
					c := newCluster(t, ranks)
					c.setSelector(forced(algo))
					c.par(t, func(cm *mpl.Comm) {
						send := make([]byte, n*ranks)
						for r := 0; r < ranks; r++ {
							copy(send[r*n:], alltoallBlock(cm.Rank(), r, n))
						}
						recv := make([]byte, n*ranks)
						cm.Alltoall(send, recv)
						for r := 0; r < ranks; r++ {
							if !bytes.Equal(recv[r*n:(r+1)*n], alltoallBlock(r, cm.Rank(), n)) {
								t.Errorf("rank %d: block from %d corrupt", cm.Rank(), r)
								return
							}
						}
					})
				})
			}
		}
	}
}

func TestBarrierAlgorithms(t *testing.T) {
	for _, algo := range []mpl.Algo{mpl.AlgoLinear, mpl.AlgoTree} {
		t.Run(algo.String(), func(t *testing.T) {
			c := newCluster(t, 6)
			c.setSelector(forced(algo))
			var mu sync.Mutex
			arrived := 0
			c.par(t, func(cm *mpl.Comm) {
				mu.Lock()
				arrived++
				mu.Unlock()
				cm.Barrier()
				mu.Lock()
				defer mu.Unlock()
				if arrived != 6 {
					t.Errorf("rank %d passed the barrier with only %d arrived", cm.Rank(), arrived)
				}
			})
		})
	}
}

func TestAllgatherAlgorithms(t *testing.T) {
	const n = 512
	for _, ranks := range []int{2, 5, 8} {
		for _, algo := range collAlgos {
			t.Run(fmt.Sprintf("r%d/%v", ranks, algo), func(t *testing.T) {
				c := newCluster(t, ranks)
				c.setSelector(forced(algo))
				c.par(t, func(cm *mpl.Comm) {
					recv := make([]byte, n*ranks)
					cm.Allgather(pattern(cm.Rank(), n), recv)
					for r := 0; r < ranks; r++ {
						if !bytes.Equal(recv[r*n:(r+1)*n], pattern(r, n)) {
							t.Errorf("rank %d: allgather block %d corrupt", cm.Rank(), r)
							return
						}
					}
				})
			})
		}
	}
}

// TestNonblockingCollectivesOverlap keeps two collectives and
// point-to-point traffic in flight at once: the whole point of the Coll
// engine driving many gates through their own progress domains.
func TestNonblockingCollectivesOverlap(t *testing.T) {
	const ranks = 8
	const elems = 2048
	c := newCluster(t, ranks)
	want1 := refSumInt64(ranks, elems)
	c.par(t, func(cm *mpl.Comm) {
		send := int64Contribution(cm.Rank(), elems)
		recv1 := make([]byte, len(send))
		recv2 := make([]byte, elems)
		co1 := cm.IAllreduce(send, recv1, mpl.OpSumInt64())
		co2 := cm.IAllgather(pattern(cm.Rank(), elems/ranks), recv2[:elems/ranks*ranks])
		// Concurrent point-to-point on user tags while both collectives
		// are in flight.
		peer := (cm.Rank() + 1) % ranks
		prev := (cm.Rank() - 1 + ranks) % ranks
		in := make([]byte, 64)
		n, err := cm.SendRecv(peer, 9, pattern(cm.Rank(), 64), prev, 9, in)
		if err != nil {
			t.Errorf("rank %d: SendRecv: %v", cm.Rank(), err)
		}
		if n != 64 || !bytes.Equal(in, pattern(prev, 64)) {
			t.Errorf("rank %d: p2p corrupted during collectives", cm.Rank())
		}
		if err := co1.Wait(); err != nil {
			t.Errorf("rank %d: allreduce: %v", cm.Rank(), err)
		}
		if err := co2.Wait(); err != nil {
			t.Errorf("rank %d: allgather: %v", cm.Rank(), err)
		}
		if !bytes.Equal(recv1, want1) {
			t.Errorf("rank %d: overlapped allreduce wrong", cm.Rank())
		}
		bn := elems / ranks
		for r := 0; r < ranks; r++ {
			if !bytes.Equal(recv2[r*bn:(r+1)*bn], pattern(r, bn)) {
				t.Errorf("rank %d: overlapped allgather block %d wrong", cm.Rank(), r)
				return
			}
		}
	})
}

func TestIBarrierTest(t *testing.T) {
	c := newCluster(t, 4)
	c.par(t, func(cm *mpl.Comm) {
		co := cm.IBarrier()
		for !co.Test() {
		}
		if err := co.Err(); err != nil {
			t.Errorf("rank %d: ibarrier: %v", cm.Rank(), err)
		}
	})
}

// TestCollectivesSizeOne runs every collective on a one-rank
// communicator, under the default selector and forced to the pipelined
// family, whose chained Bcast has no successor to forward to.
func TestCollectivesSizeOne(t *testing.T) {
	for _, sel := range []mpl.Selector{mpl.DefaultSelector(), forced(mpl.AlgoPipeline)} {
		t.Run(sel.Force.String(), func(t *testing.T) {
			eng := core.New(core.Config{Strategy: strategy.Must("balance")})
			cm, err := mpl.New(eng, 0, []*core.Gate{nil}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cm.SetSelector(sel)
			cm.Barrier()
			buf := []byte("solo")
			if err := cm.Bcast(0, buf); err != nil || string(buf) != "solo" {
				t.Fatalf("size-1 bcast = %q, err %v", buf, err)
			}
			recv := make([]byte, 8)
			cm.Allreduce(int64Contribution(0, 1), recv, mpl.OpSumInt64())
			if !bytes.Equal(recv, refSumInt64(1, 1)) {
				t.Fatal("size-1 allreduce")
			}
			a2a := make([]byte, 4)
			cm.Alltoall([]byte("self"), a2a)
			if string(a2a) != "self" {
				t.Fatal("size-1 alltoall")
			}
			if got, err := cm.AllSumInt64(41); err != nil || got != 41 {
				t.Fatalf("size-1 allsum = %d, err %v", got, err)
			}
		})
	}
}

// TestChainForwardsInPostOrder holds the root's first rail so that the
// relay's later chunks arrive on the second rail before its first one:
// the relay must not forward any chunk until the first has arrived,
// because its successor matches the n-th receive to the n-th send.
func TestChainForwardsInPostOrder(t *testing.T) {
	const ranks, chunk, size = 3, 1 << 10, 2<<10 + 5 // 3 chunks, the last ragged
	engs := make([]*core.Engine, ranks)
	gates := make([][]*core.Gate, ranks)
	for i := range engs {
		engs[i] = core.New(core.Config{Strategy: strategy.Must("balance")})
		gates[i] = make([]*core.Gate, ranks)
	}
	var held *memdrv.Driver
	for i := 0; i < ranks; i++ {
		for j := i + 1; j < ranks; j++ {
			gates[i][j] = engs[i].NewGate(fmt.Sprintf("r%d", j))
			gates[j][i] = engs[j].NewGate(fmt.Sprintf("r%d", i))
			rails := 1
			if i == 0 && j == 1 {
				rails = 2 // root to relay
			}
			for k := 0; k < rails; k++ {
				a, b := memdrv.Pair(fmt.Sprintf("%d-%d.%d", i, j, k), memdrv.DefaultProfile())
				gates[i][j].AddRail(a)
				gates[j][i].AddRail(b)
				if held == nil {
					held = a
				}
			}
		}
	}
	sel := forced(mpl.AlgoPipeline)
	sel.Chunk = chunk
	comms := make([]*mpl.Comm, ranks)
	for i := range comms {
		cm, err := mpl.New(engs[i], i, gates[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		cm.SetSelector(sel)
		comms[i] = cm
	}
	want := pattern(0, size)
	bufs := [][]byte{append([]byte(nil), want...), make([]byte, size), make([]byte, size)}
	// Chunk 0 leaves on the held rail; chunks 1 and 2 take the other
	// one and arrive first.
	held.HoldCompletions()
	colls := []*mpl.Coll{nil, comms[1].IBcast(0, bufs[1]), comms[2].IBcast(0, bufs[2])}
	colls[0] = comms[0].IBcast(0, bufs[0])
	zero := make([]byte, size)
	if !bytes.Equal(bufs[1][chunk:], want[chunk:]) || !bytes.Equal(bufs[1][:chunk], zero[:chunk]) {
		t.Fatal("setup: the relay should hold chunks 1 and 2 but not chunk 0")
	}
	if s := gates[1][2].Stats(); s.PktsSent != 0 || !bytes.Equal(bufs[2], zero) {
		t.Fatalf("relay forwarded %d packets before its first chunk arrived", s.PktsSent)
	}
	held.ReleaseCompletions()
	for r, co := range colls {
		if err := co.Wait(); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !bytes.Equal(bufs[r], want) {
			t.Errorf("rank %d: corrupt bcast", r)
		}
	}
}

// TestAllreduceAlltoallStressMemdrv is the -race stress loop of the
// acceptance criteria: 8 ranks hammering Allreduce and Alltoall across
// the eager and rendezvous regimes on in-memory rails, every iteration
// verified byte-exactly against the sequential reference.
func TestAllreduceAlltoallStressMemdrv(t *testing.T) {
	const ranks = 8
	iters := 20
	if testing.Short() {
		iters = 4
	}
	c := newCluster(t, ranks)
	elemSizes := []int{1, 33, 1024, 12 << 10} // up to 96 KiB payloads: rendezvous
	blockSizes := []int{7, 512, 9 << 10}
	c.par(t, func(cm *mpl.Comm) {
		for it := 0; it < iters; it++ {
			elems := elemSizes[it%len(elemSizes)]
			send := int64Contribution(cm.Rank(), elems)
			recv := make([]byte, len(send))
			cm.Allreduce(send, recv, mpl.OpSumInt64())
			if !bytes.Equal(recv, refSumInt64(ranks, elems)) {
				t.Errorf("rank %d iter %d: allreduce mismatch", cm.Rank(), it)
				return
			}
			n := blockSizes[it%len(blockSizes)]
			a2aSend := make([]byte, n*ranks)
			for r := 0; r < ranks; r++ {
				copy(a2aSend[r*n:], alltoallBlock(cm.Rank(), r, n))
			}
			a2aRecv := make([]byte, n*ranks)
			cm.Alltoall(a2aSend, a2aRecv)
			for r := 0; r < ranks; r++ {
				if !bytes.Equal(a2aRecv[r*n:(r+1)*n], alltoallBlock(r, cm.Rank(), n)) {
					t.Errorf("rank %d iter %d: alltoall block %d mismatch", cm.Rank(), it, r)
					return
				}
			}
		}
	})
}

func TestConcurrentCollectivesDistinctTags(t *testing.T) {
	// Back-to-back nonblocking barriers plus a bcast must not
	// cross-match: each operation reserves its own tag.
	c := newCluster(t, 4)
	c.par(t, func(cm *mpl.Comm) {
		b1 := cm.IBarrier()
		b2 := cm.IBarrier()
		buf := make([]byte, 256)
		if cm.Rank() == 1 {
			copy(buf, pattern(1, 256))
		}
		bc := cm.IBcast(1, buf)
		if err := b1.Wait(); err != nil {
			t.Errorf("b1: %v", err)
		}
		if err := bc.Wait(); err != nil {
			t.Errorf("bc: %v", err)
		}
		if err := b2.Wait(); err != nil {
			t.Errorf("b2: %v", err)
		}
		if !bytes.Equal(buf, pattern(1, 256)) {
			t.Errorf("rank %d: bcast corrupted by concurrent barriers", cm.Rank())
		}
	})
}
