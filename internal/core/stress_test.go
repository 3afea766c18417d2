package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// TestStressRandomTrafficWithFailures drives a randomized bidirectional
// workload — mixed sizes, tags, segment counts, scatter receives — over
// three rails while failing rails at random points, and checks that
// every message either arrives intact or fails with an explicit error
// once no rails remain. Seeded sub-tests keep failures reproducible.
func TestStressRandomTrafficWithFailures(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			strat := []func() core.Strategy{
				func() core.Strategy { return strategy.Must("balance") },
				func() core.Strategy { return strategy.Must("aggrail") },
				func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
				func() core.Strategy { return strategy.Must("split-dyn") },
			}[rng.Intn(4)]
			d := newDuo(t, 3, strat)

			// Arm one or two random single-send failures on sender rails.
			nFail := 1 + rng.Intn(2)
			for i := 0; i < nFail; i++ {
				d.drvsA[rng.Intn(3)].FailAfterSends(1 + rng.Intn(6))
			}

			type msg struct {
				data []byte
				sr   *core.SendReq
				rr   *core.RecvReq
				bufs [][]byte
			}
			const nMsgs = 24
			msgs := make([]*msg, nMsgs)
			var reqs []core.Request
			// Post all receives first (tags cycle so ordering is
			// exercised within and across tags).
			for i := range msgs {
				size := rng.Intn(90_000) // spans eager and rdv
				m := &msg{data: fill(size, byte(seed)^byte(i))}
				// Random scatter layout.
				rem := size
				for rem > 0 && len(m.bufs) < 3 {
					n := rem
					if len(m.bufs) < 2 && rem > 1 {
						n = 1 + rng.Intn(rem)
					}
					m.bufs = append(m.bufs, make([]byte, n))
					rem -= n
				}
				if size == 0 {
					m.bufs = [][]byte{nil}
				}
				tag := uint32(i % 3)
				m.rr = d.gateBA.Irecvv(tag, m.bufs)
				msgs[i] = m
				reqs = append(reqs, m.rr)
			}
			for i, m := range msgs {
				tag := uint32(i % 3)
				// Random segmentation of the send side.
				var segs [][]byte
				data := m.data
				for len(data) > 0 && len(segs) < 3 {
					n := len(data)
					if len(segs) < 2 && n > 1 {
						n = 1 + rng.Intn(n)
					}
					segs = append(segs, data[:n])
					data = data[n:]
				}
				if len(segs) == 0 {
					segs = [][]byte{nil}
				}
				m.sr = d.gateAB.Isendv(tag, segs)
				reqs = append(reqs, m.sr)
			}
			d.pump(t, reqs...)
			for i, m := range msgs {
				if m.sr.Err() != nil {
					t.Fatalf("msg %d send error with rails remaining: %v", i, m.sr.Err())
				}
				var got []byte
				for _, b := range m.bufs {
					got = append(got, b...)
				}
				if !bytes.Equal(got, m.data) {
					t.Fatalf("msg %d corrupted (size %d)", i, len(m.data))
				}
			}
		})
	}
}

// TestStressManyGates checks that one engine multiplexes many gates
// (peers) without cross-talk.
func TestStressManyGates(t *testing.T) {
	const peers = 5
	hub := core.New(core.Config{Strategy: strategy.Must("balance")})
	var hubGates []*core.Gate
	var peerEngines []*core.Engine
	var peerGates []*core.Gate
	for i := 0; i < peers; i++ {
		pe := core.New(core.Config{Strategy: strategy.Must("balance")})
		hg := hub.NewGate(fmt.Sprintf("peer%d", i))
		pg := pe.NewGate("hub")
		a, b := pairDrv(fmt.Sprintf("hub-%d", i))
		hg.AddRail(a)
		pg.AddRail(b)
		hubGates = append(hubGates, hg)
		peerEngines = append(peerEngines, pe)
		peerGates = append(peerGates, pg)
	}
	var reqs []core.Request
	recvs := make([][]byte, peers)
	for i := 0; i < peers; i++ {
		recvs[i] = make([]byte, 10_000)
		reqs = append(reqs, peerGates[i].Irecv(1, recvs[i]))
		reqs = append(reqs, hubGates[i].Isend(1, fill(10_000, byte(i))))
	}
	for iter := 0; iter < 100000; iter++ {
		done := true
		for _, r := range reqs {
			if !r.Done() {
				done = false
				break
			}
		}
		if done {
			break
		}
		runtime.Gosched()
	}
	for i := 0; i < peers; i++ {
		if !bytes.Equal(recvs[i], fill(10_000, byte(i))) {
			t.Fatalf("peer %d got cross-talked data", i)
		}
	}
}
