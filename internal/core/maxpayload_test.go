package core_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/strategy"
)

// postLog records the length and kind of every packet an engine posts.
type postLog struct {
	mu    sync.Mutex
	lens  []int
	kinds []core.Kind
}

func (l *postLog) trace(ev core.TraceEvent) {
	if ev.Ev != "post" {
		return
	}
	l.mu.Lock()
	l.lens = append(l.lens, ev.Len)
	l.kinds = append(l.kinds, ev.Kind)
	l.mu.Unlock()
}

// tracedPair joins two engines running strategy name over one memdrv
// rail per profile, logging every post on either side.
func tracedPair(t *testing.T, name string, profs ...core.Profile) (a, b *core.Gate, log *postLog) {
	t.Helper()
	log = &postLog{}
	engA := core.New(core.Config{Strategy: strategy.Must(name), Trace: log.trace})
	engB := core.New(core.Config{Strategy: strategy.Must(name), Trace: log.trace})
	t.Cleanup(func() { engA.Close(); engB.Close() })
	a, b = engA.NewGate("B"), engB.NewGate("A")
	for _, p := range profs {
		da, db := memdrv.Pair(p.Name, p)
		a.AddRail(da)
		b.AddRail(db)
	}
	return a, b, log
}

// transfer sends msg from a to b on tag 1 and returns what arrived.
func transfer(t *testing.T, a, b *core.Gate, msg []byte) []byte {
	t.Helper()
	recv := make([]byte, len(msg))
	rr := b.Irecv(1, recv)
	sr := a.Isend(1, msg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Engine().WaitCtx(ctx, sr); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := b.Engine().WaitCtx(ctx, rr); err != nil {
		t.Fatalf("recv: %v", err)
	}
	return recv
}

// TestNoPostAboveMaxPayload: on every strategy row, a message one byte
// past two maximal packets arrives byte-exact and no packet either
// engine posts is longer than core.MaxPayload. Two rails at 8:1
// bandwidth give every stripping row shares or bites above the bound.
func TestNoPostAboveMaxPayload(t *testing.T) {
	msg := fill(2*core.MaxPayload+1, 9)
	fast := memdrv.DefaultProfile()
	fast.Name = "fast"
	slow := fast
	slow.Name, slow.Latency, slow.Bandwidth = "slow", time.Microsecond, fast.Bandwidth/8
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			a, b, log := tracedPair(t, name, fast, slow)
			if got := transfer(t, a, b, msg); !bytes.Equal(got, msg) {
				t.Fatal("payload mismatch")
			}
			log.mu.Lock()
			defer log.mu.Unlock()
			for i, n := range log.lens {
				if n > core.MaxPayload {
					t.Fatalf("post %d (%v) carries %d bytes, above MaxPayload %d", i, log.kinds[i], n, core.MaxPayload)
				}
			}
		})
	}
}

// TestMaxPayloadLeavesAsOneChunk pins the bound as inclusive: a message
// of exactly core.MaxPayload bytes leaves a fifo gate as one chunk, as
// the 8 MiB points of the paper's figures assume.
func TestMaxPayloadLeavesAsOneChunk(t *testing.T) {
	a, b, log := tracedPair(t, "fifo", memdrv.DefaultProfile())
	msg := fill(core.MaxPayload, 3)
	if got := transfer(t, a, b, msg); !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch")
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	var chunks []int
	for i, k := range log.kinds {
		if k == core.KChunk {
			chunks = append(chunks, log.lens[i])
		}
	}
	if len(chunks) != 1 || chunks[0] != core.MaxPayload {
		t.Fatalf("chunks %v, want one of %d bytes", chunks, core.MaxPayload)
	}
}
