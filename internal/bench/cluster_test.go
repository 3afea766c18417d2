package bench

import (
	"bytes"
	"testing"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/mpl"
	"newmad/internal/strategy"
)

func testCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	return NewCluster(ClusterConfig{
		Nodes:    nodes,
		NICs:     bothRails(),
		Strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
	})
}

func TestClusterPointToPoint(t *testing.T) {
	c := testCluster(t, 3)
	msg := []byte("ring around the fabric")
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		// Each rank sends to (rank+1)%N and receives from (rank-1+N)%N.
		next := (comm.Rank() + 1) % comm.Size()
		prev := (comm.Rank() + comm.Size() - 1) % comm.Size()
		buf := make([]byte, len(msg))
		n, err := comm.SendRecv(next, 1, msg, prev, 1, buf)
		if err != nil {
			t.Errorf("rank %d: SendRecv: %v", comm.Rank(), err)
		}
		if n != len(msg) || !bytes.Equal(buf, msg) {
			t.Errorf("rank %d got %q", comm.Rank(), buf[:n])
		}
	})
	c.W.Run()
}

func TestClusterBarrierAndBcast(t *testing.T) {
	c := testCluster(t, 4)
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		buf := make([]byte, 16)
		if comm.Rank() == 2 {
			copy(buf, "from rank two!!!")
		}
		comm.Barrier()
		comm.Bcast(2, buf)
		if string(buf) != "from rank two!!!" {
			t.Errorf("rank %d got %q", comm.Rank(), buf)
		}
		if got, err := comm.AllSumInt64(int64(comm.Rank())); err != nil || got != 6 {
			t.Errorf("rank %d sum %d err %v", comm.Rank(), got, err)
		}
	})
	c.W.Run()
}

func TestClusterLargeTransfersBetweenAllPairs(t *testing.T) {
	c := testCluster(t, 3)
	const n = 128 << 10
	c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
		me := comm.Rank()
		var reqs []core.Request
		recvs := make(map[int][]byte)
		for peer := 0; peer < comm.Size(); peer++ {
			if peer == me {
				continue
			}
			buf := make([]byte, n)
			recvs[peer] = buf
			reqs = append(reqs, comm.Irecv(peer, 7, buf))
		}
		for peer := 0; peer < comm.Size(); peer++ {
			if peer == me {
				continue
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(me ^ i)
			}
			reqs = append(reqs, comm.Isend(peer, 7, data))
		}
		WaitReqs(p, reqs...)
		for peer, buf := range recvs {
			for i := range buf {
				if buf[i] != byte(peer^i) {
					t.Errorf("rank %d: corrupt byte %d from %d", me, i, peer)
					return
				}
			}
		}
	})
	c.W.Run()
}

func TestClusterValidation(t *testing.T) {
	for _, cfg := range []ClusterConfig{
		{Nodes: 1, NICs: bothRails(), Strategy: func() core.Strategy { return strategy.Must("balance") }},
		{Nodes: 2},
		{Nodes: 2, NICs: bothRails()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCluster(%+v) did not panic", cfg)
				}
			}()
			NewCluster(cfg)
		}()
	}
}

func TestClusterDeterministic(t *testing.T) {
	run := func() des.Time {
		c := testCluster(t, 3)
		c.SpawnRanks(func(p *des.Proc, comm *mpl.Comm) {
			for i := 0; i < 3; i++ {
				comm.Barrier()
			}
		})
		c.W.Run()
		return c.W.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("cluster runs differ: %d vs %d", a, b)
	}
}
