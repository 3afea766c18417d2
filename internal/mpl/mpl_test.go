package mpl_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/mpl"
	"newmad/internal/strategy"
)

// cluster builds n fully connected ranks over in-memory rails.
type cluster struct {
	comms []*mpl.Comm
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
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
			a, b := memdrv.Pair(fmt.Sprintf("%d-%d", i, j), memdrv.DefaultProfile())
			gi.AddRail(a)
			gj.AddRail(b)
			gates[i][j] = gi
			gates[j][i] = gj
		}
	}
	c := &cluster{}
	for i := 0; i < n; i++ {
		comm, err := mpl.New(engs[i], i, gates[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		c.comms = append(c.comms, comm)
	}
	return c
}

// par runs fn for every rank concurrently and waits.
func (c *cluster) par(t *testing.T, fn func(comm *mpl.Comm)) {
	t.Helper()
	var wg sync.WaitGroup
	for _, cm := range c.comms {
		cm := cm
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(cm)
		}()
	}
	wg.Wait()
}

func TestSendRecvTwoRanks(t *testing.T) {
	c := newCluster(t, 2)
	msg := []byte("rank to rank")
	c.par(t, func(cm *mpl.Comm) {
		if cm.Rank() == 0 {
			if err := cm.Send(1, 5, msg); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			buf := make([]byte, len(msg))
			n, err := cm.Recv(0, 5, buf)
			if err != nil {
				t.Errorf("recv: %v", err)
			}
			if n != len(msg) || !bytes.Equal(buf, msg) {
				t.Errorf("recv %q (%d bytes)", buf[:n], n)
			}
		}
	})
}

func TestSendRecvExchange(t *testing.T) {
	c := newCluster(t, 2)
	c.par(t, func(cm *mpl.Comm) {
		peer := 1 - cm.Rank()
		out := []byte{byte(cm.Rank()), 0xAA}
		in := make([]byte, 2)
		n, err := cm.SendRecv(peer, 3, out, peer, 3, in)
		if err != nil {
			t.Errorf("rank %d: SendRecv: %v", cm.Rank(), err)
		}
		if n != 2 || in[0] != byte(peer) || in[1] != 0xAA {
			t.Errorf("rank %d got %v", cm.Rank(), in)
		}
	})
}

func TestBarrierThreeRanks(t *testing.T) {
	c := newCluster(t, 3)
	var mu sync.Mutex
	arrived := 0
	c.par(t, func(cm *mpl.Comm) {
		mu.Lock()
		arrived++
		mu.Unlock()
		cm.Barrier()
		mu.Lock()
		defer mu.Unlock()
		if arrived != 3 {
			t.Errorf("rank %d passed the barrier with only %d arrived", cm.Rank(), arrived)
		}
	})
}

func TestBcast(t *testing.T) {
	c := newCluster(t, 3)
	c.par(t, func(cm *mpl.Comm) {
		buf := make([]byte, 8)
		if cm.Rank() == 1 {
			copy(buf, "rootdata")
		}
		cm.Bcast(1, buf)
		if string(buf) != "rootdata" {
			t.Errorf("rank %d got %q", cm.Rank(), buf)
		}
	})
}

func TestAllSumInt64(t *testing.T) {
	c := newCluster(t, 4)
	c.par(t, func(cm *mpl.Comm) {
		got, err := cm.AllSumInt64(int64(cm.Rank() + 1))
		if err != nil || got != 10 {
			t.Errorf("rank %d sum = %d (err %v), want 10", cm.Rank(), got, err)
		}
	})
}

func TestAllSumNegative(t *testing.T) {
	c := newCluster(t, 2)
	c.par(t, func(cm *mpl.Comm) {
		got, err := cm.AllSumInt64(int64(-5))
		if err != nil || got != -10 {
			t.Errorf("sum = %d (err %v), want -10", got, err)
		}
	})
}

func TestNonBlockingOps(t *testing.T) {
	c := newCluster(t, 2)
	c.par(t, func(cm *mpl.Comm) {
		if cm.Rank() == 0 {
			sr := cm.Isendv(1, 2, [][]byte{[]byte("seg1"), []byte("seg2")})
			cm.Engine().Wait(sr)
		} else {
			buf := make([]byte, 8)
			rr := cm.Irecv(0, 2, buf)
			cm.Engine().Wait(rr)
			if string(buf) != "seg1seg2" {
				t.Errorf("got %q", buf)
			}
		}
	})
}

func TestCommValidation(t *testing.T) {
	eng := core.New(core.Config{Strategy: strategy.Must("balance")})
	g := eng.NewGate("x")
	if _, err := mpl.New(eng, 5, []*core.Gate{nil, g}, nil); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := mpl.New(eng, 0, []*core.Gate{g, g}, nil); err == nil {
		t.Fatal("non-nil self gate accepted")
	}
	if _, err := mpl.New(eng, 0, []*core.Gate{nil, nil}, nil); err == nil {
		t.Fatal("missing peer gate accepted")
	}
	c, err := mpl.New(eng, 0, []*core.Gate{nil, g}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 0 || c.Size() != 2 {
		t.Fatal("accessors")
	}
}

func TestReservedTagPanics(t *testing.T) {
	c := newCluster(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("reserved tag accepted")
		}
	}()
	c.comms[0].Isend(1, mpl.MaxUserTag+1, []byte("x"))
}

func TestBadPeerRankPanics(t *testing.T) {
	c := newCluster(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("self send accepted")
		}
	}()
	c.comms[0].Isend(0, 1, []byte("x"))
}

func TestGather(t *testing.T) {
	c := newCluster(t, 3)
	const n = 1000
	c.par(t, func(cm *mpl.Comm) {
		send := bytes.Repeat([]byte{byte(cm.Rank() + 1)}, n)
		var recv []byte
		if cm.Rank() == 1 {
			recv = make([]byte, n*cm.Size())
		}
		cm.Gather(1, send, recv)
		if cm.Rank() == 1 {
			for r := 0; r < cm.Size(); r++ {
				for i := 0; i < n; i++ {
					if recv[r*n+i] != byte(r+1) {
						t.Errorf("gather block %d corrupt at %d", r, i)
						return
					}
				}
			}
		}
	})
}

func TestScatter(t *testing.T) {
	c := newCluster(t, 3)
	const n = 500
	c.par(t, func(cm *mpl.Comm) {
		var send []byte
		if cm.Rank() == 0 {
			send = make([]byte, n*cm.Size())
			for r := 0; r < cm.Size(); r++ {
				for i := 0; i < n; i++ {
					send[r*n+i] = byte(r * 3)
				}
			}
		}
		recv := make([]byte, n)
		cm.Scatter(0, send, recv)
		for i := range recv {
			if recv[i] != byte(cm.Rank()*3) {
				t.Errorf("rank %d scatter corrupt at %d", cm.Rank(), i)
				return
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	c := newCluster(t, 4)
	const n = 256
	c.par(t, func(cm *mpl.Comm) {
		send := bytes.Repeat([]byte{byte(0x10 + cm.Rank())}, n)
		recv := make([]byte, n*cm.Size())
		cm.Allgather(send, recv)
		for r := 0; r < cm.Size(); r++ {
			for i := 0; i < n; i++ {
				if recv[r*n+i] != byte(0x10+r) {
					t.Errorf("rank %d allgather block %d corrupt", cm.Rank(), r)
					return
				}
			}
		}
	})
}

func TestGatherLargeBlocksUseRendezvous(t *testing.T) {
	c := newCluster(t, 2)
	n := 100 << 10 // rendezvous-sized blocks
	c.par(t, func(cm *mpl.Comm) {
		send := bytes.Repeat([]byte{byte(cm.Rank() + 7)}, n)
		var recv []byte
		if cm.Rank() == 0 {
			recv = make([]byte, n*cm.Size())
		}
		cm.Gather(0, send, recv)
		if cm.Rank() == 0 {
			for r := 0; r < cm.Size(); r++ {
				if recv[r*n] != byte(r+7) || recv[(r+1)*n-1] != byte(r+7) {
					t.Errorf("large gather block %d corrupt", r)
				}
			}
		}
	})
}

func TestGatherSizeValidationPanics(t *testing.T) {
	c := newCluster(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("short gather recv accepted")
		}
	}()
	c.comms[0].Gather(0, make([]byte, 100), make([]byte, 10))
}
