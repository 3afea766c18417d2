package bench

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/strategy"
)

// The shm-vs-TCP comparison: the same wall-clock pingpong run over
// a shared-memory rail and over a TCP rail through the loopback
// interface — the two same-host transports an application actually
// chooses between. Both sides are full engines driven by Engine.Wait,
// so the figure includes the whole stack (strategy, request matching,
// driver), not just the raw ring. Wall-clock and machine-dependent, so
// the pinned perf report leaves it out — but the ordering is pinned:
// the shm rail must beat TCP loopback at every size (the shmlat
// acceptance test), or the rail has no reason to exist.

// ShmLatencyPoint is one same-host transport comparison: half-RTT
// pingpong latency at SizeBytes over each rail, with the derived
// one-way bandwidth (informative for the large sizes, where the
// rendezvous path dominates).
type ShmLatencyPoint struct {
	SizeBytes    int     `json:"size_bytes"`
	ShmHalfRTTNs float64 `json:"shm_half_rtt_ns"`
	TCPHalfRTTNs float64 `json:"tcp_half_rtt_ns"`
	ShmMBps      float64 `json:"shm_mb_per_sec"`
	TCPMBps      float64 `json:"tcp_mb_per_sec"`
}

// ShmLatencySizes are the report's sweep points: an inline-path size, a
// ring-edge size, a rendezvous size and a bandwidth size.
func ShmLatencySizes() []int { return []int{64, 4 << 10, 64 << 10, 1 << 20} }

// pingpong measures the mean half-RTT at one size: warmup+iters full
// round trips, the echo side on its own goroutine, both sides blocking
// in Engine.Wait.
func (d *duo) pingpong(size, warmup, iters int) (float64, error) {
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i * 37)
	}
	echo := make([]byte, size)
	back := make([]byte, size)
	total := warmup + iters
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			rr := d.gateBA.Irecv(1, echo)
			if err := d.engB.Wait(rr); err != nil {
				echoErr <- err
				return
			}
			sr := d.gateBA.Isend(2, echo)
			if err := d.engB.Wait(sr); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	var start time.Time
	for i := 0; i < total; i++ {
		if i == warmup {
			start = time.Now()
		}
		sr := d.gateAB.Isend(1, msg)
		if err := d.engA.Wait(sr); err != nil {
			return 0, err
		}
		rr := d.gateAB.Irecv(2, back)
		if err := d.engA.Wait(rr); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := <-echoErr; err != nil {
		return 0, err
	}
	if !bytes.Equal(back, msg) {
		return 0, fmt.Errorf("pingpong payload corrupted at size %d", size)
	}
	return float64(elapsed.Nanoseconds()) / float64(2*iters), nil
}

// tcpLoopbackPair brings one tcpdrv pair up through the loopback
// interface.
func tcpLoopbackPair() (*tcpdrv.Driver, *tcpdrv.Driver, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type res struct {
		d   *tcpdrv.Driver
		err error
	}
	accepted := make(chan res, 1)
	go func() {
		d, err := tcpdrv.Accept(l, tcpdrv.Options{})
		accepted <- res{d, err}
	}()
	cli, err := tcpdrv.Dial(l.Addr().String(), tcpdrv.Options{})
	if err != nil {
		return nil, nil, err
	}
	srv := <-accepted
	if srv.err != nil {
		cli.Close()
		return nil, nil, srv.err
	}
	return srv.d, cli, nil
}

// ShmLatencyFamily measures the shm-vs-TCP-loopback comparison at each
// size. It errors where it cannot run (no /dev/shm).
func ShmLatencyFamily(sizes []int, q Quality) ([]ShmLatencyPoint, error) {
	if !shmdrv.Supported() {
		return nil, fmt.Errorf("shm rails unsupported on this platform")
	}
	// FIFO, so every byte rides the rail under measurement.
	fifo := func() core.Strategy { return strategy.NewFIFO(0) }
	sa, sb, err := shmdrv.Pair(shmdrv.Options{})
	if err != nil {
		return nil, err
	}
	shmDuo := newDuo(fifo, sa, sb)
	defer shmDuo.close()
	ta, tb, err := tcpLoopbackPair()
	if err != nil {
		return nil, err
	}
	tcpDuo := newDuo(fifo, ta, tb)
	defer tcpDuo.close()

	mbps := func(size int, halfRTTNs float64) float64 {
		return float64(size) / halfRTTNs * 1e9 / 1e6
	}
	var pts []ShmLatencyPoint
	for _, size := range sizes {
		shmNs, err := shmDuo.pingpong(size, q.Warmup, q.Iters)
		if err != nil {
			return nil, fmt.Errorf("shm pingpong size %d: %w", size, err)
		}
		tcpNs, err := tcpDuo.pingpong(size, q.Warmup, q.Iters)
		if err != nil {
			return nil, fmt.Errorf("tcp pingpong size %d: %w", size, err)
		}
		pts = append(pts, ShmLatencyPoint{
			SizeBytes:    size,
			ShmHalfRTTNs: shmNs, TCPHalfRTTNs: tcpNs,
			ShmMBps: mbps(size, shmNs), TCPMBps: mbps(size, tcpNs),
		})
	}
	return pts, nil
}
