package shmdrv

import (
	"testing"
	"time"

	"newmad/internal/drivers/drvtest"
)

// testOptions keeps liveness fast enough for the suite's 5s deadlines
// while staying comfortably above scheduler hiccups under -race.
func testOptions() Options {
	return Options{
		Heartbeat:   20 * time.Millisecond,
		PeerTimeout: 300 * time.Millisecond,
	}
}

// TestDriverConformance runs the full driver contract suite against the
// shared-memory driver: one real /dev/shm segment, two mappings.
//
// Break kills the B side the way a crash would — heartbeats stop, no
// graceful flag — so A must earn its exactly-once RailDown through
// staleness detection. Flap kills only A: the A engine notices on its
// next posted send (refused, clean reroute semantics), and the B engine
// gets the asynchronous RailDown; both sides observe, per the contract.
func TestDriverConformance(t *testing.T) {
	if !Supported() {
		t.Skip("shared-memory segments unsupported on this platform")
	}
	drvtest.Run(t, drvtest.Harness{
		New: func(t *testing.T) drvtest.Pair {
			a, b, err := Pair(testOptions())
			if err != nil {
				t.Fatal(err)
			}
			return drvtest.Pair{
				A: a, B: b,
				Break: func() { b.Kill() },
				Flap:  func() { a.Kill() },
			}
		},
	})
}
