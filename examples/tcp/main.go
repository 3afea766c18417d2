// TCP: run the engine over real sockets inside one process — two engines
// connected by two loopback TCP rails used as a multi-rail pair, with
// the paper's final strategy splitting a large message across both
// connections. Demonstrates the real-time (non-simulated) path of the
// library: wall-clock Clock, event-driven progress (each rail's I/O
// goroutines complete requests while Wait parks), genuine bytes on real
// file descriptors.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"newmad"
)

func main() {
	engA := newmad.New(newmad.Config{Strategy: newmad.StrategySplit()})
	engB := newmad.New(newmad.Config{Strategy: newmad.StrategySplit()})
	defer engA.Close()
	defer engB.Close()
	gateAB := engA.NewGate("B")
	gateBA := engB.NewGate("A")

	// Two loopback rails; give them different declared profiles so the
	// stripping ratio is visibly asymmetric (2:1).
	for i, bw := range []float64{800e6, 400e6} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		prof := newmad.Profile{Name: fmt.Sprintf("tcp%d", i), Bandwidth: bw, EagerMax: 32 << 10}
		accepted := make(chan newmad.Driver, 1)
		go func() {
			d, err := newmad.AcceptTCP(l, newmad.TCPOptions{Profile: prof})
			if err != nil {
				log.Fatal(err)
			}
			accepted <- d
		}()
		dialer, err := newmad.DialTCP(l.Addr().String(), newmad.TCPOptions{Profile: prof})
		if err != nil {
			log.Fatal(err)
		}
		gateAB.AddRail(dialer)
		gateBA.AddRail(<-accepted)
		l.Close()
	}

	const tag, size = 9, 8 << 20
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	recv := make([]byte, size)

	done := make(chan struct{})
	go func() {
		defer close(done)
		rr := gateBA.Irecv(tag, recv)
		if err := engB.Wait(rr); err != nil {
			log.Fatal(err)
		}
	}()

	start := time.Now()
	sr := gateAB.Isend(tag, msg)
	if err := engA.Wait(sr); err != nil {
		log.Fatal(err)
	}
	<-done
	elapsed := time.Since(start)

	for i := range recv {
		if recv[i] != msg[i] {
			log.Fatalf("corruption at byte %d", i)
		}
	}
	r0p, r0b := gateAB.Rails()[0].Stats()
	r1p, r1b := gateAB.Rails()[1].Stats()
	fmt.Printf("moved %d MB intact in %v (%.0f MB/s)\n", size>>20, elapsed,
		float64(size)/elapsed.Seconds()/1e6)
	fmt.Printf("rail0 carried %d packets / %d bytes, rail1 %d packets / %d bytes\n",
		r0p, r0b, r1p, r1b)
}
