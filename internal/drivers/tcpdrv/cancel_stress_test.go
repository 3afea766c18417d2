package tcpdrv

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

// TestCancelPoolSafetyStressTCP is the real-socket twin of core's
// cancellation-storm stress: engines over loopback TCP rails, poison
// canary armed, cancels racing eager and rendezvous transfers. The
// socket driver adds the paths the in-memory stress can't reach —
// writev flushes of payloads the engine may abandon, pooled read frames
// crossing goroutines, and events delivered from the I/O goroutines —
// all of which must stay safe while requests die under them.
func TestCancelPoolSafetyStressTCP(t *testing.T) {
	core.SetPoolChecks(true)
	t.Cleanup(func() { core.SetPoolChecks(false) })

	engA := core.New(core.Config{Strategy: strategy.Must("balance")})
	engB := core.New(core.Config{Strategy: strategy.Must("balance")})
	gA := engA.NewGate("B")
	gB := engB.NewGate("A")
	for r := 0; r < 2; r++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var server *Driver
		var serr error
		done := make(chan struct{})
		go func() {
			server, serr = Accept(l, Options{})
			close(done)
		}()
		client, err := Dial(l.Addr().String(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		<-done
		l.Close()
		if serr != nil {
			t.Fatal(serr)
		}
		gA.AddRail(client)
		gB.AddRail(server)
		t.Cleanup(func() {
			client.Close()
			server.Close()
		})
	}

	errStress := errors.New("test: stress cancel")
	const workers = 3
	iters := 60
	if testing.Short() {
		iters = 15
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := uint32(200 + w)
			small := make([]byte, 512)
			big := make([]byte, 80<<10) // above EagerMax: rendezvous
			for i := range small {
				small[i] = byte(w + i)
			}
			for i := range big {
				big[i] = byte(w ^ i)
			}
			recvS := make([]byte, len(small))
			recvB := make([]byte, len(big))
			for i := 0; i < iters; i++ {
				msg, recv := small, recvS
				if i%4 == 3 {
					msg, recv = big, recvB
				}
				rr := gB.Irecv(tag, recv)
				sr := gA.Isend(tag, msg)
				switch i % 3 {
				case 0:
					sr.Cancel(errStress)
				case 1:
					rr.Cancel(errStress)
				}
				deadline := time.Now().Add(20 * time.Second)
				for !(sr.Done() && rr.Done()) {
					time.Sleep(10 * time.Microsecond)
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
