package session

import (
	"context"
	"fmt"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/shmdrv"
)

func skipWithoutShm(t *testing.T) {
	t.Helper()
	if !shmdrv.Supported() {
		t.Skip("shared-memory rails unsupported on this platform")
	}
}

// tripleRails offers one rail of each transport the session layer
// knows: a TCP stream, a relnet-reliable UDP rail, and a same-host
// shared-memory rail. Bandwidths at 5:2:1 so a split strategy gives
// every rail a meaningful share of a striped megabyte.
func tripleRails() []RailSpec {
	return []RailSpec{
		{Addr: "127.0.0.1:0", Profile: core.Profile{Name: "tcp-fast", Bandwidth: 800e6, EagerMax: 32 << 10, Latency: 20 * time.Microsecond}},
		{Addr: "127.0.0.1:0", Proto: "udp", Profile: core.Profile{Name: "udp-lossy", Bandwidth: 400e6, EagerMax: 32 << 10, PIOMax: 8 << 10, Latency: 40 * time.Microsecond}},
		{Proto: "shm", Profile: core.Profile{Name: "shm-local", Bandwidth: 2e9, EagerMax: 32 << 10, PIOMax: 4 << 10, Latency: time.Microsecond}},
	}
}

// TestSessionTripleSplit is the heterogeneous acceptance transfer for
// the shared-memory rail: a session over tcp+udp+shm moves a striped
// megabyte each way, byte-verified, with all three transports carrying
// chunks.
func TestSessionTripleSplit(t *testing.T) {
	skipWithoutShm(t)
	engA, engB := engines(t)
	gateAB, gateBA := bringUp(t, engA, engB, tripleRails())
	if len(gateAB.Rails()) != 3 || len(gateBA.Rails()) != 3 {
		t.Fatalf("rails: %d / %d", len(gateAB.Rails()), len(gateBA.Rails()))
	}
	// The shm rail's profile crossed the control channel.
	if got := gateBA.Rails()[2].Profile().Name; got != "shm-local" {
		t.Fatalf("shm rail profile: %q", got)
	}
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i * 193)
	}
	exchange(t, engA, engB, gateAB, gateBA, 1, msg)
	exchange(t, engB, engA, gateBA, gateAB, 2, msg)
	for _, g := range []*core.Gate{gateAB, gateBA} {
		p0, _ := g.Rails()[0].Stats()
		p1, _ := g.Rails()[1].Stats()
		p2, _ := g.Rails()[2].Stats()
		if p0 == 0 || p1 == 0 || p2 == 0 {
			t.Fatalf("a rail carried nothing: tcp=%d udp=%d shm=%d", p0, p1, p2)
		}
	}
}

// TestSessionTripleSplitInFlight streams 400 × 256 KiB over a tcp+udp+shm
// gate with 8 messages in flight, byte-verified, under a deadline. Split
// puts a share of every message on the udp rail, so a udp window that
// overruns its socket buffer stalls the whole stream on retransmit
// timeouts.
func TestSessionTripleSplitInFlight(t *testing.T) {
	skipWithoutShm(t)
	engA, engB := engines(t)
	gateAB, gateBA := bringUp(t, engA, engB, tripleRails())
	const msgs, size, inFlight = 400, 256 << 10, 8
	pattern := func(i, j int) byte { return byte(j*13 + i) }
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	recvDone := make(chan error, 1)
	go func() {
		var bufs [inFlight][]byte
		var reqs [inFlight]*core.RecvReq
		for i := 0; i < msgs+inFlight; i++ {
			slot := i % inFlight
			if i >= inFlight {
				if err := engB.WaitCtx(ctx, reqs[slot]); err != nil {
					recvDone <- fmt.Errorf("receive %d: %w", i-inFlight, err)
					return
				}
				for j, b := range bufs[slot] {
					if b != pattern(i-inFlight, j) {
						recvDone <- fmt.Errorf("message %d corrupted at byte %d", i-inFlight, j)
						return
					}
				}
			}
			if i < msgs {
				if bufs[slot] == nil {
					bufs[slot] = make([]byte, size)
				}
				reqs[slot] = gateBA.Irecv(uint32(i), bufs[slot])
			}
		}
		recvDone <- nil
	}()
	var bufs [inFlight][]byte
	var reqs [inFlight]*core.SendReq
	for i := 0; i < msgs+inFlight; i++ {
		slot := i % inFlight
		if i >= inFlight {
			if err := engA.WaitCtx(ctx, reqs[slot]); err != nil {
				t.Fatalf("send %d: %v", i-inFlight, err)
			}
		}
		if i < msgs {
			if bufs[slot] == nil {
				bufs[slot] = make([]byte, size)
			}
			for j := range bufs[slot] {
				bufs[slot][j] = pattern(i, j)
			}
			reqs[slot] = gateAB.Isend(uint32(i), bufs[slot])
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	if p, _ := gateAB.Rails()[1].Stats(); p == 0 {
		t.Fatal("the udp rail carried nothing")
	}
}

// TestSessionShmOnly brings a session up over a single shm rail: the
// whole data path rides one shared-memory segment, and a zero spec
// profile crosses as shmdrv's defaults.
func TestSessionShmOnly(t *testing.T) {
	skipWithoutShm(t)
	engA, engB := engines(t)
	gateAB, gateBA := bringUp(t, engA, engB, []RailSpec{{Proto: "shm"}})
	if got := gateBA.Rails()[0].Profile().Name; got != "shm" {
		t.Fatalf("default shm profile did not cross: %q", got)
	}
	msg := make([]byte, 256<<10)
	for i := range msg {
		msg[i] = byte(i * 29)
	}
	exchange(t, engA, engB, gateAB, gateBA, 3, msg)
}

// TestSessionShmRailDeathFailover kills both sides of the shm rail
// right after bring-up — the same silence a crashed peer process leaves
// — and then runs the acceptance transfer: the first chunk routed at
// the dead rail is refused, the engine marks it down and reroutes, and
// the surviving tcp+udp rails complete the megabyte byte-verified.
func TestSessionShmRailDeathFailover(t *testing.T) {
	skipWithoutShm(t)
	engA, engB := engines(t)
	gateAB, gateBA := bringUp(t, engA, engB, tripleRails())
	gateAB.Rails()[2].Driver().(*shmdrv.Driver).Kill()
	gateBA.Rails()[2].Driver().(*shmdrv.Driver).Kill()

	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i * 61)
	}
	exchange(t, engA, engB, gateAB, gateBA, 4, msg)
	if !gateAB.Rails()[2].Down() {
		t.Fatal("dead shm rail not marked down on the sender gate")
	}
	p0, _ := gateAB.Rails()[0].Stats()
	p1, _ := gateAB.Rails()[1].Stats()
	if p0 == 0 || p1 == 0 {
		t.Fatalf("survivors idle after shm death: tcp=%d udp=%d", p0, p1)
	}
	// Rail stats count at posting time, so the refused attempt that
	// tripped the failover registers ~1 packet on the dead rail — but
	// never the striped share it was assigned.
	if p2, _ := gateAB.Rails()[2].Stats(); p2 > 2 {
		t.Fatalf("dead shm rail carried %d packets", p2)
	}
}
