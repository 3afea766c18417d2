package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"newmad/internal/core"
	"newmad/internal/session"
	"newmad/internal/strategy"
)

// stream_tcp_mix: one tcp rail with aggreg and 64 messages in flight,
// sizes seeded log-uniform from 16 B to 32 KiB — across the 16 KiB
// AggThreshold, under tcpdrv's 64 KiB eager limit. The per-message path
// of the pingpong used for throughput: aggregation, tcpdrv writev
// batching and pool leases do the work. The raw medium is the same
// sizes and bytes over a bare loopback net.Conn stream.
func runStream(o opts) (*report, error) {
	const lo, hi = 16, 32 << 10
	sizes := logUniformSizes(o.seed, 2, 1024, lo, hi, 1)
	size := func(i int64) int { return sizes[i%int64(len(sizes))] }
	f := newFlow(64, hi, newPayloads(o.seed, hi, 64<<10, size))
	return runWall(o, wallWorkload{
		rails:    []session.RailSpec{{Addr: "127.0.0.1:0"}},
		strategy: func() core.Strategy { return strategy.NewAggreg(0) },
		round:    100 * time.Millisecond,
		newRaw:   func() (rawMedium, error) { return newTCPStream(f.pl, hi) },
		engine:   f.round,
		// Linux grows a TCP receive buffer only while the reader keeps
		// up with a full window; a stream of small messages can sit for
		// tens of seconds below that point at a seventh of its rate. A
		// burst of the largest messages grows it before warm-up.
		prime: func(d *duo, st *roundStats) error {
			big := newFlow(64, hi, newPayloads(o.seed, hi, 64<<10, func(int64) int { return hi }))
			return big.round(d, newTracer(), 0, primeStream, st)
		},
		layers: func(rep *report, raw []time.Duration) {
			rep.layers["raw.tcp_stream_ns"] = median(durs(raw))
		},
	})
}

// bulkRails are the profiles the session tests declare for a gate of
// one rail of each kind (tripleRails in internal/session/shm_test.go).
func bulkRails() []session.RailSpec {
	return []session.RailSpec{
		{Addr: "127.0.0.1:0", Profile: core.Profile{Name: "tcp-fast", Bandwidth: 800e6, EagerMax: 32 << 10, Latency: 20 * time.Microsecond}},
		{Addr: "127.0.0.1:0", Proto: "udp", Profile: core.Profile{Name: "udp-lossy", Bandwidth: 400e6, EagerMax: 32 << 10, PIOMax: 8 << 10, Latency: 40 * time.Microsecond}},
		{Proto: "shm", Profile: core.Profile{Name: "shm-local", Bandwidth: 2e9, EagerMax: 32 << 10, PIOMax: 4 << 10, Latency: time.Microsecond}},
	}
}

// bulk_split3_4M: 4 MiB messages, two in flight, striped with split
// over a session-negotiated tcp+udp+shm gate. The paper's headline:
// rendezvous, split ratios, the shm zero-copy arena, tcpdrv bulk writes
// and relnet do all the work. It is relnet-bound, and relnet's
// retransmission timeouts stall single messages for seconds, so its
// figures do not repeat from run to run (see README.md); it runs on
// demand but is not one of BENCHMARK.json's workloads.
func runBulk(o opts) (*report, error) { return runSplit3(o, 4<<20, 16) }

// bulk_split3_256K is the same gate, strategy and pattern with 256 KiB
// messages: every message still goes by rendezvous and is striped over
// all three rails, but the udp rail's share stays small enough that
// relnet rarely has to time a segment out.
func runBulk256K(o opts) (*report, error) { return runSplit3(o, 256<<10, 4000) }

// runSplit3 streams size-byte messages, two in flight, over the three
// rails with split, after prime unmeasured ones. The raw medium is a
// copy of the same bytes.
func runSplit3(o opts, size, prime int) (*report, error) {
	f := newFlow(2, size, newPayloads(o.seed, size, 256<<10, func(int64) int { return size }))
	return runWall(o, wallWorkload{
		rails:    bulkRails(),
		strategy: func() core.Strategy { return strategy.NewSplit(strategy.SplitRatio) },
		round:    250 * time.Millisecond,
		// Rounds of at least eight messages keep two in flight for most
		// of each round; the drain at a round's end is the one moment a
		// single message is alone on the rails.
		startUnits: 8,
		newRaw:     func() (rawMedium, error) { return &copyRaw{pl: f.pl, dst: make([]byte, size)}, nil },
		engine:     f.round,
		// A fresh gate ramps up over its first seconds (256 KiB: from
		// about 600 to 1500 messages/s) as TCP receive buffers and
		// relnet's RTT estimate settle; run that ramp before warm-up,
		// with negative message indices so the measured sequence is
		// unchanged.
		prime: func(d *duo, st *roundStats) error {
			return f.round(d, newTracer(), -int64(prime), prime, st)
		},
		layers: func(rep *report, raw []time.Duration) {
			rep.layers["raw.copy_GBps"] = float64(size) / median(durs(raw))
			// The shm rail's bare medium, for comparison with
			// shmdrv.send_to_complete_us.
			if ns, err := shmEchoHalfRTT(o.seed); err == nil {
				rep.layers["shmring.raw_echo_ns"] = ns
			}
		},
	})
}

// flow is a one-way stream of messages with a fixed number in flight:
// engine A's sender goroutine keeps at most window messages between
// Isend and the matching receive's completion, engine B's receiver
// keeps window receives posted. Latency runs from Isend to the
// receive's completion; both engines share one process and one clock.
type flow struct {
	window int
	pl     *payloads
	bufs   [][]byte
	stamps []atomic.Int64 // Isend time of the message in each window slot
}

const flowTag = 7

// primeStream is how many 32 KiB messages stream_tcp_mix sends through
// the engine gate, and through the raw connection, before warm-up.
const primeStream = 8192

func newFlow(window, maxSize int, pl *payloads) *flow {
	f := &flow{window: window, pl: pl, stamps: make([]atomic.Int64, window)}
	for i := 0; i < window; i++ {
		f.bufs = append(f.bufs, make([]byte, maxSize))
	}
	return f
}

// round moves n messages, the first being global message base.
func (f *flow) round(d *duo, tr *tracer, base int64, n int, st *roundStats) error {
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	var received atomic.Int64
	wake := make(chan struct{}, 1)
	sendErr := make(chan error, 1)
	go func() { sendErr <- f.send(ctx, d, tr, base, n, &received, wake) }()
	err := f.recv(ctx, d, tr, base, n, &received, wake, st)
	if err != nil {
		cancel()
	}
	if serr := <-sendErr; err == nil {
		err = serr
	}
	return err
}

func (f *flow) send(ctx context.Context, d *duo, tr *tracer, base int64, n int, received *atomic.Int64, wake chan struct{}) error {
	W := int64(f.window)
	pending := make([]*core.SendReq, 0, 2*f.window)
	head := 0
	waitOldest := func() error {
		sr := pending[head]
		pending[head] = nil
		head++
		ts := tr.start()
		err := d.engA.WaitCtx(ctx, sr)
		tr.stop(&tr.wait, ts)
		if err != nil {
			return fmt.Errorf("send: %w", err)
		}
		sr.Recycle()
		return nil
	}
	for i := int64(0); i < int64(n); i++ {
		for i-received.Load() >= W {
			// Wait inside the engine while sends are outstanding, so
			// engine A is pumped; block on the receiver only when all of
			// A's work is done.
			if head < len(pending) {
				if err := waitOldest(); err != nil {
					return err
				}
				continue
			}
			select {
			case <-wake:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if head == len(pending) {
			pending, head = pending[:0], 0
		}
		m := f.pl.get(base + i)
		f.stamps[i%W].Store(now())
		ts := tr.start()
		sr := d.ga.Isend(flowTag, m)
		tr.stop(&tr.isend, ts)
		pending = append(pending, sr)
	}
	for head < len(pending) {
		if err := waitOldest(); err != nil {
			return err
		}
	}
	return nil
}

func (f *flow) recv(ctx context.Context, d *duo, tr *tracer, base int64, n int, received *atomic.Int64, wake chan struct{}, st *roundStats) error {
	W := f.window
	reqs := make([]*core.RecvReq, W)
	fins := make([]func(), W)
	post := func(j int) {
		ts := tr.start()
		reqs[j%W] = d.gb.Irecv(flowTag, f.bufs[j%W])
		tr.stop(&tr.irecv, ts)
		fins[j%W] = tr.watchRecv(1, reqs[j%W])
	}
	for j := 0; j < W && j < n; j++ {
		post(j)
	}
	for j := 0; j < n; j++ {
		r := reqs[j%W]
		ts := tr.start()
		err := d.engB.WaitCtx(ctx, r)
		tr.stop(&tr.wait, ts)
		done := now()
		fins[j%W]()
		st.attempted++
		st.units++
		if err != nil {
			st.failed++
			return fmt.Errorf("receive %d: %w", base+int64(j), err)
		}
		m := f.pl.get(base + int64(j))
		if r.Len() != len(m) || !bytes.Equal(f.bufs[j%W][:len(m)], m) {
			st.failed++
		} else {
			st.msgs++
			st.bytes += int64(len(m))
			st.lat = append(st.lat, float64(done-f.stamps[j%W].Load())/1e3)
		}
		r.Recycle()
		if j+W < n {
			post(j + W)
		}
		received.Store(int64(j + 1))
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// tcpStream is stream_tcp_mix's raw medium: the same sizes and bytes,
// length-prefixed, over a bare loopback TCP connection with one writev
// per message.
type tcpStream struct {
	w, r net.Conn
	br   *bufio.Reader
	pl   *payloads
	buf  []byte
	next int64
}

func newTCPStream(pl *payloads, maxSize int) (*tcpStream, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		ch <- c
	}()
	w, err := net.Dial("tcp", l.Addr().String())
	r := <-ch
	if err != nil || r == nil {
		if w != nil {
			w.Close()
		}
		if r != nil {
			r.Close()
		}
		return nil, fmt.Errorf("raw tcp stream: %v", err)
	}
	s := &tcpStream{w: w, r: r, br: bufio.NewReaderSize(r, 64<<10), pl: pl, buf: make([]byte, maxSize)}
	// The same burst the engine gate gets, so both connections' receive
	// buffers have grown before they are compared.
	big := pl.pat[:maxSize]
	if _, err := s.move(primeStream, func(int64) []byte { return big }); err != nil {
		s.close()
		return nil, fmt.Errorf("raw tcp stream: %v", err)
	}
	return s, nil
}

func (s *tcpStream) round(n int) (time.Duration, error) {
	first := s.next
	s.next += int64(n)
	return s.move(n, func(i int64) []byte { return s.pl.get(first + i) })
}

// move sends msg(0..n-1) through the connection, checks every frame that
// arrives and returns the time per message.
func (s *tcpStream) move(n int, msg func(i int64) []byte) (time.Duration, error) {
	werr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		var hdr [4]byte
		for i := int64(0); i < int64(n); i++ {
			m := msg(i)
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(m)))
			bufs := net.Buffers{hdr[:], m}
			if _, err := bufs.WriteTo(s.w); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	var hdr [4]byte
	for i := int64(0); i < int64(n); i++ {
		if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
			return 0, err
		}
		k := int(binary.LittleEndian.Uint32(hdr[:]))
		if k > len(s.buf) {
			return 0, fmt.Errorf("raw tcp stream: frame of %d bytes", k)
		}
		if _, err := io.ReadFull(s.br, s.buf[:k]); err != nil {
			return 0, err
		}
		if !bytes.Equal(s.buf[:k], msg(i)) {
			return 0, fmt.Errorf("raw tcp stream corrupted message %d", i)
		}
	}
	el := time.Since(t0)
	if err := <-werr; err != nil {
		return 0, err
	}
	return el / time.Duration(n), nil
}

func (s *tcpStream) close() {
	s.w.Close()
	s.r.Close()
}

// copyRaw is bulk_split3_4M's raw medium: a copy of the same bytes.
type copyRaw struct {
	pl   *payloads
	dst  []byte
	next int64
}

func (c *copyRaw) round(n int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		copy(c.dst, c.pl.get(c.next))
		c.next++
	}
	return time.Since(t0) / time.Duration(n), nil
}

func (c *copyRaw) close() {}
