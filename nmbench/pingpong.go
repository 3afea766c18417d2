package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/session"
	"newmad/internal/shmring"
	"newmad/internal/strategy"
)

// roundTimeout bounds one round: a lost message fails the run instead of
// hanging it.
const roundTimeout = 60 * time.Second

// pingpong_shm_64B: one 64 B message in flight on one shm rail with
// fifo. Nearly all the time is the per-message path — Isend, strategy,
// shmdrv inline send, arrive/match, waiter wake-up — and the shm futex
// doorbell; nothing is aggregated, split or sent by rendezvous. The
// latency is the half round trip; the raw medium is a bare shmring
// Push/TryPop echo over a segment of the same geometry.
func runPingpong(o opts) (*report, error) {
	if !shmdrv.Supported() {
		return nil, fmt.Errorf("shm rails unsupported on this host")
	}
	const size = 64
	pl := newPayloads(o.seed, size, 64<<10, func(int64) int { return size })
	back, echo := make([]byte, size), make([]byte, size)
	return runWall(o, wallWorkload{
		rails:    []session.RailSpec{{Proto: "shm"}},
		strategy: func() core.Strategy { return strategy.NewFIFO(0) },
		round:    100 * time.Millisecond,
		newRaw:   func() (rawMedium, error) { return newShmEcho(pl) },
		engine: func(d *duo, tr *tracer, base int64, n int, st *roundStats) error {
			ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
			defer cancel()
			echoErr := make(chan error, 1)
			go func() { echoErr <- pingpongEcho(ctx, d, tr, n, echo) }()
			err := pingpongLead(ctx, d, tr, base, n, pl, back, st)
			if err != nil {
				cancel()
			}
			if eerr := <-echoErr; err == nil {
				err = eerr
			}
			return err
		},
		layers: func(rep *report, raw []time.Duration) {
			// The raw round's unit is a round trip; report the half.
			rep.layers["shmring.raw_echo_ns"] = median(durs(raw)) / 2
		},
	})
}

// pingpongLead is engine A's side: send message i, wait for its echo,
// check it byte for byte.
func pingpongLead(ctx context.Context, d *duo, tr *tracer, base int64, n int, pl *payloads, back []byte, st *roundStats) error {
	for i := 0; i < n; i++ {
		m := pl.get(base + int64(i))
		t0 := time.Now()
		ts := tr.start()
		rr := d.ga.Irecv(2, back)
		tr.stop(&tr.irecv, ts)
		fin := tr.watchRecv(0, rr)
		ts = tr.start()
		sr := d.ga.Isend(1, m)
		tr.stop(&tr.isend, ts)
		ts = tr.start()
		err := d.engA.WaitCtx(ctx, sr)
		if err == nil {
			err = d.engA.WaitCtx(ctx, rr)
		}
		tr.stop(&tr.wait, ts)
		fin()
		el := time.Since(t0)
		st.attempted += 2
		st.units++
		if err != nil {
			st.failed += 2
			return fmt.Errorf("pingpong round trip %d: %w", base+int64(i), err)
		}
		if rr.Len() != len(m) || !bytes.Equal(back, m) {
			st.failed += 2
		} else {
			st.msgs += 2
			st.bytes += 2 * int64(len(m))
			st.lat = append(st.lat, float64(el.Nanoseconds())/2e3)
		}
		rr.Recycle()
		sr.Recycle()
	}
	return nil
}

// pingpongEcho is engine B's side: receive and send the bytes back.
func pingpongEcho(ctx context.Context, d *duo, tr *tracer, n int, echo []byte) error {
	for i := 0; i < n; i++ {
		ts := tr.start()
		rr := d.gb.Irecv(1, echo)
		tr.stop(&tr.irecv, ts)
		fin := tr.watchRecv(1, rr)
		ts = tr.start()
		err := d.engB.WaitCtx(ctx, rr)
		tr.stop(&tr.wait, ts)
		fin()
		if err != nil {
			return fmt.Errorf("echo receive: %w", err)
		}
		k := rr.Len()
		rr.Recycle()
		ts = tr.start()
		sr := d.gb.Isend(2, echo[:k])
		tr.stop(&tr.isend, ts)
		ts = tr.start()
		err = d.engB.WaitCtx(ctx, sr)
		tr.stop(&tr.wait, ts)
		if err != nil {
			return fmt.Errorf("echo send: %w", err)
		}
		sr.Recycle()
	}
	return nil
}

// shmEchoHalfRTT times a bare 64 B shmring echo on its own: the median
// over ten rounds of 1000 round trips, halved.
func shmEchoHalfRTT(seed int64) (float64, error) {
	e, err := newShmEcho(newPayloads(seed, 64, 64<<10, func(int64) int { return 64 }))
	if err != nil {
		return 0, err
	}
	defer e.close()
	var pers []float64
	for i := 0; i < 10; i++ {
		per, err := e.round(1000)
		if err != nil {
			return 0, err
		}
		pers = append(pers, float64(per))
	}
	return median(pers) / 2, nil
}

// shmEcho is the raw medium of the pingpong: the two sides of one
// shmring segment (default geometry, as shmdrv uses), side 1 echoing
// every record back with Push/TryPop and no engine in between.
type shmEcho struct {
	a, b *shmring.Seg
	pl   *payloads
	next int64
	stop atomic.Bool
	done chan struct{}
}

func newShmEcho(pl *payloads) (*shmEcho, error) {
	name := shmring.RandomName()
	a, err := shmring.Create(name, shmring.Config{})
	if err != nil {
		return nil, err
	}
	b, err := shmring.Open(name, shmring.Config{})
	if err != nil {
		a.Close()
		return nil, err
	}
	e := &shmEcho{a: a, b: b, pl: pl, done: make(chan struct{})}
	go e.serve()
	return e, nil
}

func (e *shmEcho) serve() {
	defer close(e.done)
	buf := make([]byte, 64<<10)
	var n int
	take := func(_ uint32, x, y []byte) { n = copy(buf, x); n += copy(buf[n:], y) }
	rx, tx := e.b.RX(), e.b.TX()
	for !e.stop.Load() {
		if !rx.TryPop(take) {
			rx.WaitData(10 * time.Millisecond)
			continue
		}
		if tx.Push(0, buf[:n]) != nil {
			return
		}
	}
}

// round echoes n messages and returns the time per round trip.
func (e *shmEcho) round(n int) (time.Duration, error) {
	rx, tx := e.a.RX(), e.a.TX()
	var got []byte
	take := func(_ uint32, x, y []byte) { got = append(append(got[:0], x...), y...) }
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m := e.pl.get(e.next)
		e.next++
		if err := tx.Push(0, m); err != nil {
			return 0, err
		}
		for !rx.TryPop(take) {
			rx.WaitData(10 * time.Millisecond)
		}
		if !bytes.Equal(got, m) {
			return 0, fmt.Errorf("raw shmring echo corrupted message %d", e.next-1)
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

func (e *shmEcho) close() {
	e.stop.Store(true)
	e.a.Close()
	e.b.Close()
	<-e.done
}
