package relnet_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/des"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/relnet"
	"newmad/internal/simnet"
)

// sink is a minimal thread-safe core.Events recorder.
type sink struct {
	mu        sync.Mutex
	arrivals  []*core.Packet
	completes int
	downs     []error
}

func (s *sink) SendComplete(rail int) {
	s.mu.Lock()
	s.completes++
	s.mu.Unlock()
}

func (s *sink) SendFailed(rail int, p *core.Packet, err error) {}

func (s *sink) Arrive(rail int, p *core.Packet) {
	s.mu.Lock()
	cp := &core.Packet{Hdr: p.Hdr, Payload: append([]byte(nil), p.Payload...)}
	s.arrivals = append(s.arrivals, cp)
	s.mu.Unlock()
	p.Release()
}

func (s *sink) RailDown(rail int, err error) {
	s.mu.Lock()
	s.downs = append(s.downs, err)
	s.mu.Unlock()
}

func (s *sink) counts() (arr, comp, downs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.arrivals), s.completes, len(s.downs)
}

func (s *sink) arrival(i int) *core.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arrivals[i]
}

func pkt(tag uint32, msg uint64, payload []byte) *core.Packet {
	return &core.Packet{
		Hdr: core.Header{
			Kind: core.KData, Tag: tag, MsgID: msg, MsgSegs: 1,
			MsgLen: uint64(len(payload)), SegLen: uint64(len(payload)),
		},
		Payload: payload,
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fastCfg keeps wall-clock recovery snappy in tests.
func fastCfg() relnet.Config {
	return relnet.Config{RTO: 2 * time.Millisecond, RetryBudget: 4}
}

// pair builds two relnet drivers over a loopback transport pair with a
// Flaky injector on each side's outgoing datagrams.
func pair(t *testing.T, cfg relnet.Config, mtu int) (da, db *relnet.Driver, fa, fb *relnet.Flaky, sa, sb *sink) {
	t.Helper()
	ta, tb := memdrv.TransportPair(t.Name(), core.Profile{}, mtu)
	fa, fb = relnet.NewFlaky(ta), relnet.NewFlaky(tb)
	da, db = relnet.Wrap(fa, cfg), relnet.Wrap(fb, cfg)
	sa, sb = &sink{}, &sink{}
	da.Bind(0, sa)
	db.Bind(0, sb)
	t.Cleanup(func() {
		_ = da.Close()
		_ = db.Close()
	})
	return
}

func leakCheck(t *testing.T) {
	t.Helper()
	before := core.PoolStats()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		after := core.PoolStats()
		if d := after.Live - before.Live; d != 0 {
			t.Errorf("pool leak: %d leases live after test", d)
		}
	})
}

func TestSegCodecRoundtrip(t *testing.T) {
	// The codec is internal; round-trip it through the public path: a
	// clean pair must deliver frames of every size byte-exact, which
	// exercises encode/decode/fragment/reassemble end to end.
	leakCheck(t)
	da, _, _, _, sa, sb := pair(t, fastCfg(), 512)
	sizes := []int{0, 1, 100, 448, 449, 1000, 4096}
	for i, n := range sizes {
		payload := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := da.Send(pkt(uint32(i), uint64(i), payload)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitUntil(t, "all frames", func() bool { a, _, _ := sb.counts(); return a >= len(sizes) })
	if _, c, _ := sa.counts(); c != len(sizes) {
		t.Fatalf("%d SendCompletes, want %d", c, len(sizes))
	}
	for i, n := range sizes {
		got := sb.arrival(i)
		if len(got.Payload) != n {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got.Payload), n)
		}
		if got.Hdr.MsgID != uint64(i) {
			t.Fatalf("frame %d out of order: msg %d", i, got.Hdr.MsgID)
		}
		for _, b := range got.Payload {
			if b != byte(i+1) {
				t.Fatalf("frame %d corrupt", i)
			}
		}
	}
}

func TestDropRecovery(t *testing.T) {
	leakCheck(t)
	da, _, fa, _, _, sb := pair(t, fastCfg(), 512)
	fa.SetDropEvery(3)
	const n = 20
	var want [][]byte
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 64+i*17)
		want = append(want, payload)
		if err := da.Send(pkt(uint32(i%3), uint64(i), payload)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitUntil(t, "all frames through 1-in-3 loss", func() bool {
		a, _, _ := sb.counts()
		return a >= n
	})
	for i := 0; i < n; i++ {
		got := sb.arrival(i)
		if got.Hdr.MsgID != uint64(i) || !bytes.Equal(got.Payload, want[i]) {
			t.Fatalf("frame %d wrong (msg %d, %d bytes)", i, got.Hdr.MsgID, len(got.Payload))
		}
	}
	if st := da.Stats(); st.Retransmits == 0 {
		t.Error("no retransmissions recorded despite injected loss")
	}
	dropped, _, _ := fa.Injected()
	if dropped == 0 {
		t.Error("flaky injected no drops")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	leakCheck(t)
	da, db, fa, _, _, sb := pair(t, fastCfg(), 512)
	fa.SetDupEvery(2)
	const n = 12
	for i := 0; i < n; i++ {
		if err := da.Send(pkt(1, uint64(i), bytes.Repeat([]byte{byte(i)}, 100))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitUntil(t, "frames", func() bool { a, _, _ := sb.counts(); return a >= n })
	if a, _, _ := sb.counts(); a != n {
		t.Fatalf("%d arrivals, want exactly %d", a, n)
	}
	if st := db.Stats(); st.DupsDropped == 0 {
		t.Error("receiver suppressed no duplicates despite injected dup traffic")
	}
}

func TestReorderDelivery(t *testing.T) {
	leakCheck(t)
	da, _, fa, _, _, sb := pair(t, fastCfg(), 512)
	fa.SetSwapEvery(4)
	const n = 16
	for i := 0; i < n; i++ {
		if err := da.Send(pkt(1, uint64(i), bytes.Repeat([]byte{byte(i)}, 200))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitUntil(t, "frames", func() bool { a, _, _ := sb.counts(); return a >= n })
	for i := 0; i < n; i++ {
		if got := sb.arrival(i); got.Hdr.MsgID != uint64(i) {
			t.Fatalf("arrival %d has msg %d: reordered delivery", i, got.Hdr.MsgID)
		}
	}
	da.Close()
}

func TestRetryExhaustionRailDown(t *testing.T) {
	leakCheck(t)
	cfg := relnet.Config{RTO: time.Millisecond, RetryBudget: 3}
	da, _, fa, _, sa, _ := pair(t, cfg, 512)
	fa.SetDropEvery(1) // blackhole
	if err := da.Send(pkt(1, 0, []byte("into the void"))); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitUntil(t, "RailDown", func() bool { _, _, d := sa.counts(); return d >= 1 })
	// Exactly once, no matter how long we keep watching.
	time.Sleep(20 * time.Millisecond)
	if _, _, d := sa.counts(); d != 1 {
		t.Fatalf("RailDown reported %d times, want exactly once", d)
	}
	sa.mu.Lock()
	err := sa.downs[0]
	sa.mu.Unlock()
	if !errors.Is(err, core.ErrRailDown) {
		t.Fatalf("RailDown error %v does not wrap core.ErrRailDown", err)
	}
	if err := da.Send(pkt(1, 1, []byte("after death"))); err == nil {
		t.Fatal("Send accepted on a failed rail")
	}
}

func TestAckPiggybacking(t *testing.T) {
	leakCheck(t)
	// Window 1 so B's second send queues behind its unacked first; the
	// Flaky holds A's standalone ack back, so B's window can only be
	// opened by the cumulative ack riding A's data segment — and B's
	// queued segment then goes out carrying B's ack of that data.
	cfg := relnet.Config{RTO: 50 * time.Millisecond, Window: 1}
	da, db, fa, _, sa, sb := pair(t, cfg, 512)
	fa.SetSwapEvery(1)
	if err := db.Send(pkt(2, 0, []byte("pong0"))); err != nil {
		t.Fatalf("b send: %v", err)
	}
	if err := db.Send(pkt(2, 1, []byte("pong1"))); err != nil {
		t.Fatalf("b send: %v", err)
	}
	if err := da.Send(pkt(1, 0, []byte("ping0"))); err != nil {
		t.Fatalf("a send: %v", err)
	}
	waitUntil(t, "both directions", func() bool {
		a, _, _ := sa.counts()
		b, _, _ := sb.counts()
		return a >= 2 && b >= 1
	})
	if st := db.Stats(); st.AcksPiggybacked == 0 {
		t.Error("queued reverse data did not piggyback the ack")
	}
	fa.SetSwapEvery(0)
	// Let retransmission flush the held ack path so teardown is clean.
	waitUntil(t, "quiesce", func() bool {
		return da.Stats().SegsSent > 0
	})
}

func TestTransportFailureFailsRail(t *testing.T) {
	ta, tb := memdrv.TransportPair(t.Name(), core.Profile{}, 512)
	da, db := relnet.Wrap(ta, fastCfg()), relnet.Wrap(tb, fastCfg())
	sa := &sink{}
	da.Bind(0, sa)
	db.Bind(0, &sink{})
	defer da.Close()
	defer db.Close()
	ta.FailAsync(errors.New("reader died"))
	if _, _, d := sa.counts(); d != 1 {
		t.Fatalf("transport failure reported %d RailDowns, want 1", d)
	}
	if err := da.Send(pkt(1, 0, nil)); err == nil {
		t.Fatal("Send accepted after transport failure")
	}
}

// TestDESTimersLeaveNoPhantomWakeups pins the cancellable-timer fix:
// after a clean exchange on a simulated host's clock, running the world
// must not advance virtual time to the (huge) RTO — the stopped
// retransmit timers are skipped without a wakeup.
func TestDESTimersLeaveNoPhantomWakeups(t *testing.T) {
	leakCheck(t)
	w := des.NewWorld()
	ta, tb := memdrv.TransportPair(t.Name(), core.Profile{}, 512)
	cfg := relnet.Config{RTO: time.Hour, Clock: simnet.NewHost(w, "A", simnet.Opteron())}
	da, db := relnet.Wrap(ta, cfg), relnet.Wrap(tb, cfg)
	sa, sb := &sink{}, &sink{}
	da.Bind(0, sa)
	db.Bind(0, sb)
	t.Cleanup(func() {
		_ = da.Close()
		_ = db.Close()
	})
	// Loopback delivery is synchronous, so the exchange (including the
	// final ack) is complete when Send returns; the armed RTO timers
	// must all have been stopped along the way.
	for i := 0; i < 8; i++ {
		if err := da.Send(pkt(1, uint64(i), bytes.Repeat([]byte{7}, 1000))); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if a, _, _ := sb.counts(); a != 8 {
		t.Fatalf("%d arrivals before Run, want 8", a)
	}
	w.Run()
	if w.Now() != 0 {
		t.Fatalf("virtual clock advanced to %v: phantom retransmit timer wakeups", w.Now().Duration())
	}
}

// tap records the sequence number of every DATA segment sent through
// it and drops the first transmission of the segments in drop.
type tap struct {
	relnet.Transport
	mu   sync.Mutex
	drop map[uint64]bool
	sent []uint64
}

func (t *tap) Send(f *core.Buf) error {
	seq, data := relnet.DataSeq(f.B)
	if !data {
		return t.Transport.Send(f)
	}
	t.mu.Lock()
	t.sent = append(t.sent, seq)
	lost := t.drop[seq]
	delete(t.drop, seq)
	t.mu.Unlock()
	if lost {
		f.Release()
		return nil
	}
	return t.Transport.Send(f)
}

// TestFastRetransmitsLeaveInSequenceOrder pins the DES determinism of
// loss recovery: when one ack pushes several segments over the
// duplicate-hint threshold at once, their retransmissions leave in
// ascending sequence order, not in the order of a map walk.
func TestFastRetransmitsLeaveInSequenceOrder(t *testing.T) {
	leakCheck(t)
	w := des.NewWorld()
	ta, tb := memdrv.TransportPair(t.Name(), core.Profile{}, 512)
	tp := &tap{Transport: ta, drop: map[uint64]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}}
	cfg := relnet.Config{RTO: time.Hour, Clock: simnet.NewHost(w, "A", simnet.Opteron())}
	da, db := relnet.Wrap(tp, cfg), relnet.Wrap(tb, cfg)
	sb := &sink{}
	da.Bind(0, &sink{})
	db.Bind(0, sb)
	t.Cleanup(func() {
		_ = da.Close()
		_ = db.Close()
	})
	// Segments 7, 8 and 9 each ack with a sack above the six lost ones;
	// the third hint fires all six fast retransmits from one ack.
	const n = 9
	for i := 0; i < n; i++ {
		if err := da.Send(pkt(1, uint64(i), bytes.Repeat([]byte{byte(i)}, 100))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if a, _, _ := sb.counts(); a != n {
		t.Fatalf("%d arrivals, want %d", a, n)
	}
	if st := da.Stats(); st.FastRetransmits != 6 || st.Timeouts != 0 {
		t.Fatalf("fast retransmits %d, timeouts %d; want 6 and 0", st.FastRetransmits, st.Timeouts)
	}
	tp.mu.Lock()
	retx := append([]uint64(nil), tp.sent[n:]...)
	tp.mu.Unlock()
	want := []uint64{1, 2, 3, 4, 5, 6}
	if len(retx) != len(want) {
		t.Fatalf("retransmitted %v, want %v", retx, want)
	}
	for i := range want {
		if retx[i] != want[i] {
			t.Fatalf("retransmitted %v, want ascending %v", retx, want)
		}
	}
}

func TestRTOBacksOffAndAdapts(t *testing.T) {
	da, _, fa, _, _, sb := pair(t, relnet.Config{RTO: time.Millisecond, RetryBudget: 10}, 512)
	fa.SetDropEvery(1)
	if err := da.Send(pkt(1, 0, []byte("x"))); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitUntil(t, "backoff", func() bool { return da.RTO() >= 4*time.Millisecond })
	fa.SetDropEvery(0)
	waitUntil(t, "recovery", func() bool { a, _, _ := sb.counts(); return a >= 1 })
	if st := da.Stats(); st.Timeouts == 0 {
		t.Error("no RTO timeouts recorded")
	}
}

// TestRTOFloorFollowsClock pins where the derived RTO's floor comes
// from: a nil Clock is the wall clock and floors at 2ms; a supplied
// clock is a simulated host and floors at 10us. Above the floor the RTO
// is 4·latency + 2·window·MTU/bandwidth, and on the simulated host an
// unanswered segment backs the timeout off to at most 64× that value.
func TestRTOFloorFollowsClock(t *testing.T) {
	const mtu = 512
	cases := []struct {
		name string
		sim  bool
		prof core.Profile
		want time.Duration
	}{
		// 4·10µs + 2·64·512 B / 1 GB/s = 105.536µs, below the wall floor.
		{"wall-floor", false, core.Profile{Latency: 10 * time.Microsecond, Bandwidth: 1e9}, 2 * time.Millisecond},
		{"wall-derived", false, core.Profile{Latency: time.Millisecond, Bandwidth: 1e9}, 4065536 * time.Nanosecond},
		{"host-derived", true, core.Profile{Latency: 10 * time.Microsecond, Bandwidth: 1e9}, 105536 * time.Nanosecond},
		// 4·1µs + 65.536ns is below the simulated floor.
		{"host-floor", true, core.Profile{Latency: time.Microsecond, Bandwidth: 1e12}, 10 * time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			w := des.NewWorld()
			cfg := relnet.Config{RetryBudget: 10}
			if tc.sim {
				cfg.Clock = simnet.NewHost(w, "A", simnet.Opteron())
			}
			ta, tb := memdrv.TransportPair(t.Name(), tc.prof, mtu)
			fa := relnet.NewFlaky(ta)
			da, db := relnet.Wrap(fa, cfg), relnet.Wrap(tb, cfg)
			sa := &sink{}
			da.Bind(0, sa)
			db.Bind(0, &sink{})
			t.Cleanup(func() {
				_ = da.Close()
				_ = db.Close()
			})
			if got := da.RTO(); got != tc.want {
				t.Fatalf("RTO %v, want %v", got, tc.want)
			}
			if !tc.sim {
				return
			}
			fa.SetDropEvery(1)
			if err := da.Send(pkt(1, 0, []byte("x"))); err != nil {
				t.Fatalf("send: %v", err)
			}
			w.Run()
			if _, _, d := sa.counts(); d != 1 {
				t.Fatalf("%d RailDowns after the retry budget, want 1", d)
			}
			if got := da.RTO(); got != 64*tc.want {
				t.Fatalf("backed-off RTO %v, want the 64× cap %v", got, 64*tc.want)
			}
		})
	}
}

// TestOversizeFrameRailDownOnce: a frame length is the peer's to forge,
// and one above the longest frame the engine posts (core.HeaderLen +
// core.MaxPayload) is a protocol violation — exactly one RailDown,
// nothing delivered, no buffer allocated for the claim.
func TestOversizeFrameRailDownOnce(t *testing.T) {
	leakCheck(t)
	d, s, send := hostileRail(t.Name())
	t.Cleanup(func() { _ = d.Close() })
	send(dataSeg(1, 0, core.HeaderLen+core.MaxPayload+1, false, make([]byte, 64)))
	waitUntil(t, "rail down", func() bool { _, _, downs := s.counts(); return downs > 0 })
	time.Sleep(20 * time.Millisecond)
	if arr, _, downs := s.counts(); downs != 1 || arr != 0 {
		t.Fatalf("%d RailDowns and %d arrivals, want 1 and 0", downs, arr)
	}
	s.mu.Lock()
	err := s.downs[0]
	s.mu.Unlock()
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("RailDown %q does not name the bound", err)
	}
}
