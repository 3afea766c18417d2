package core_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"newmad/internal/core"
)

// TestCancelPoolSafetyStress races a cancellation storm against a
// message storm over the in-memory driver with the arena's poison canary
// armed: if any engine or driver path writes through a buffer lease
// after it was released — the use-after-free of pooled allocation — the
// canary (or the race detector, in CI's -race pass) trips. Small eager
// messages and rendezvous bodies are mixed so both the aggregation and
// the chunked paths see cancels at every stage.
func TestCancelPoolSafetyStress(t *testing.T) {
	core.SetPoolChecks(true)
	t.Cleanup(func() { core.SetPoolChecks(false) })
	d := newDuo(t, 2, balanced)
	errStress := errors.New("test: stress cancel")
	const workers = 4
	iters := 150
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := uint32(100 + w)
			small := fill(512, byte(w+1))
			big := fill(96<<10, byte(w+2)) // above EagerMax: rendezvous
			recvS := make([]byte, len(small))
			recvB := make([]byte, len(big))
			for i := 0; i < iters; i++ {
				msg, recv := small, recvS
				if i%4 == 3 {
					msg, recv = big, recvB
				}
				rr := d.gateBA.Irecv(tag, recv)
				sr := d.gateAB.Isend(tag, msg)
				switch i % 3 {
				case 0:
					sr.Cancel(errStress)
				case 1:
					rr.Cancel(errStress)
				}
				deadline := time.Now().Add(10 * time.Second)
				for !(sr.Done() && rr.Done()) {
					runtime.Gosched()
					if time.Now().After(deadline) {
						t.Errorf("worker %d: iteration %d never reached a terminal state", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
