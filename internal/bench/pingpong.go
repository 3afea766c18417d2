package bench

import (
	"fmt"

	"newmad/internal/des"
)

// The benchmark of the paper (§3.1): a ping-pong where each direction is
// a series of non-blocking sends of equal-sized segments, the receiver
// posting a matching non-blocking receive for the whole message.

const pingTag = 7

// SweepLatency runs the ping-pong for every size and returns the measured
// half round-trip time (ns) per size. Sizes are total message bytes
// across all segs segments (segs <= 1 sends one segment); q.Iters must
// be >= 1.
func (p *Pair) SweepLatency(sizes []int, segs int, q Quality) []Point {
	if len(sizes) == 0 {
		return nil
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	sendA := pattern(maxSize, 0xA5)
	sendB := pattern(maxSize, 0x5A)
	recvA := make([]byte, maxSize)
	recvB := make([]byte, maxSize)
	pts := make([]Point, len(sizes))

	p.W.Spawn("pong", func(pr *des.Proc) {
		for _, size := range sizes {
			for it := 0; it < q.Warmup+q.Iters; it++ {
				rr := p.GateBA.Irecv(pingTag, recvB)
				WaitReqs(pr, rr)
				if q.Verify {
					checkPayload(recvB[:size], 0xA5)
				}
				sr := p.GateBA.Isendv(pingTag, segments(sendB, size, segs))
				WaitReqs(pr, sr)
			}
		}
	})
	p.W.Spawn("ping", func(pr *des.Proc) {
		for si, size := range sizes {
			var t0 des.Time
			for it := 0; it < q.Warmup+q.Iters; it++ {
				if it == q.Warmup {
					t0 = pr.Now()
				}
				rr := p.GateAB.Irecv(pingTag, recvA)
				sr := p.GateAB.Isendv(pingTag, segments(sendA, size, segs))
				WaitReqs(pr, sr, rr)
				if q.Verify {
					checkPayload(recvA[:size], 0x5A)
				}
			}
			elapsed := pr.Now() - t0
			pts[si] = Point{X: size, Y: float64(elapsed) / float64(q.Iters) / 2}
		}
	})
	p.W.Run()
	return pts
}

// toMBps converts size bytes moved in ns nanoseconds to MB/s.
func toMBps(size int, ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(size) / ns * 1e9 / 1e6
}

// segments slices the first size bytes of buf into n equal segments (the
// last takes any remainder).
func segments(buf []byte, size, n int) [][]byte {
	if n <= 1 {
		return [][]byte{buf[:size]}
	}
	per := size / n
	out := make([][]byte, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		end := off + per
		if i == n-1 {
			end = size
		}
		out = append(out, buf[off:end])
		off = end
	}
	return out
}

// pattern fills a buffer with a position-dependent pattern seeded by b.
func pattern(n int, b byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b ^ byte(i*131>>3)
	}
	return buf
}

// checkPayload panics if buf does not match pattern(len(buf), b).
func checkPayload(buf []byte, b byte) {
	for i := range buf {
		if want := b ^ byte(i*131>>3); buf[i] != want {
			panic(fmt.Sprintf("bench: payload corruption at byte %d: got %#x want %#x", i, buf[i], want))
		}
	}
}
