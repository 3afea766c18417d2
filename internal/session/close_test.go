package session

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// TestEngineCloseRacesTCPStream closes both engines of a one-rail TCP
// session while a 64-deep stream of mixed eager and rendezvous messages
// is in flight. The rail's I/O goroutines deliver events right up to the
// close, so this pins the close path of the event-driven driver: every
// request completes exactly once — intact, or with an error — no Wait
// parks, and every arena lease taken during the stream is returned.
func TestEngineCloseRacesTCPStream(t *testing.T) {
	const inFlight = 64
	engA := core.New(core.Config{Strategy: strategy.NewAggreg(0)})
	engB := core.New(core.Config{Strategy: strategy.NewAggreg(0)})
	rails := []RailSpec{{Addr: "127.0.0.1:0", Profile: core.Profile{Name: "tcp", Bandwidth: 1e9, EagerMax: 32 << 10, Latency: 20 * time.Microsecond}}}
	gateAB, gateBA := bringUp(t, engA, engB, rails)
	before := core.PoolStats().Live

	msgs := make([][]byte, inFlight)
	recvs := make([][]byte, inFlight)
	var reqs []core.Request
	completions := make([]atomic.Int32, 2*inFlight)
	track := func(r core.Request) {
		i := len(reqs)
		r.OnComplete(func() { completions[i].Add(1) })
		reqs = append(reqs, r)
	}
	for i := range msgs {
		n := 16 << (i % 12) // 16 B .. 32 KiB, with every twelfth one rendezvous
		if i%12 == 11 {
			n = 48 << 10
		}
		msgs[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
		recvs[i] = make([]byte, n)
		track(gateBA.Irecv(uint32(i%4), recvs[i]))
	}
	for i := range msgs {
		track(gateAB.Isend(uint32(i%4), msgs[i]))
	}
	// Let the stream get going, then close both ends under it.
	deadline := time.Now().Add(5 * time.Second)
	for !reqs[0].Done() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Microsecond)
	}
	closed := make(chan struct{}, 2)
	for _, eng := range []*core.Engine{engA, engB} {
		go func(eng *core.Engine) {
			_ = eng.Close()
			closed <- struct{}{}
		}(eng)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, r := range reqs {
		err := engA.WaitCtx(ctx, r)
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("request %d never completed after Engine.Close", i)
		}
		if i < inFlight && err == nil && !bytes.Equal(recvs[i], msgs[i]) {
			t.Fatalf("receive %d completed clean with a corrupt payload", i)
		}
	}
	<-closed
	<-closed
	for i := range completions {
		if n := completions[i].Load(); n != 1 {
			t.Fatalf("request %d completed %d times", i, n)
		}
	}
	if d := core.PoolStats().Live - before; d != 0 {
		t.Fatalf("pool leak: %d arena leases still live after both engines closed", d)
	}
}
