package bench

import (
	"testing"

	"newmad/internal/drivers/shmdrv"
)

// TestShmLatencyBeatsTCPLoopback is the shm rail's acceptance figure:
// at every sweep size, the shared-memory pingpong half-RTT must be
// strictly below the TCP-loopback half-RTT on the same machine — the
// ring, its FIFO doorbell (the receiver parks in the netpoller like a
// socket reader, and is rung only when parked) and its single-copy
// paths against the kernel's socket stack. Wall-clock: both rails pay
// the same goroutine wake-ups, and shm wins by skipping the socket
// stack's per-message work.
func TestShmLatencyBeatsTCPLoopback(t *testing.T) {
	if !shmdrv.Supported() {
		t.Skip("shared-memory rails unsupported on this platform")
	}
	pts, err := ShmLatencyFamily(ShmLatencySizes(), Fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ShmLatencySizes()) {
		t.Fatalf("family has %d points, want %d", len(pts), len(ShmLatencySizes()))
	}
	for _, pt := range pts {
		t.Logf("size %7d: shm %10.0f ns  tcp %10.0f ns  (%.1fx)",
			pt.SizeBytes, pt.ShmHalfRTTNs, pt.TCPHalfRTTNs, pt.TCPHalfRTTNs/pt.ShmHalfRTTNs)
		if pt.ShmHalfRTTNs >= pt.TCPHalfRTTNs {
			t.Errorf("size %d: shm half-RTT %.0f ns not below tcp loopback %.0f ns",
				pt.SizeBytes, pt.ShmHalfRTTNs, pt.TCPHalfRTTNs)
		}
	}
}
