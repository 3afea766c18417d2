package tcpdrv

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

type recorder struct {
	mu        sync.Mutex
	completes int
	fails     []error
	downs     []error
	arrivals  []*core.Packet
}

func (r *recorder) SendComplete(int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.completes++
}
func (r *recorder) SendFailed(_ int, _ *core.Packet, e error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = append(r.fails, e)
}
func (r *recorder) RailDown(_ int, e error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.downs = append(r.downs, e)
}
func (r *recorder) Arrive(_ int, p *core.Packet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arrivals = append(r.arrivals, p)
}
func (r *recorder) snapshot() (int, int, []*core.Packet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.completes, len(r.fails), append([]*core.Packet(nil), r.arrivals...)
}

// dialPair connects a client and a server driver over loopback, both
// with opts and still unbound; the drivers are closed when the test
// ends.
func dialPair(t testing.TB, opts Options) (*Driver, *Driver) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var server *Driver
	var serr error
	done := make(chan struct{})
	go func() {
		server, serr = Accept(l, opts)
		close(done)
	}()
	client, err := Dial(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if serr != nil {
		t.Fatal(serr)
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// tcpPair is dialPair with a recorder bound to each end.
func tcpPair(t *testing.T) (*Driver, *Driver, *recorder, *recorder) {
	t.Helper()
	client, server := dialPair(t, Options{})
	rc, rs := &recorder{}, &recorder{}
	client.Bind(0, rc)
	server.Bind(0, rs)
	return client, server, rc, rs
}

func pkt(payload []byte) *core.Packet {
	return &core.Packet{
		Hdr:     core.Header{Kind: core.KData, Tag: 1, MsgSegs: 1, SegLen: uint64(len(payload)), MsgLen: uint64(len(payload))},
		Payload: payload,
	}
}

// waitUntil waits for the drivers' I/O goroutines to make cond true.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("condition not reached")
}

func TestRoundTripSmallPacket(t *testing.T) {
	c, _, rc, rs := tcpPair(t)
	payload := []byte("over the real wire")
	if err := c.Send(pkt(payload)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { _, _, arr := rs.snapshot(); return len(arr) == 1 })
	_, _, arr := rs.snapshot()
	if !bytes.Equal(arr[0].Payload, payload) {
		t.Fatalf("payload %q", arr[0].Payload)
	}
	waitUntil(t, func() bool { comp, _, _ := rc.snapshot(); return comp == 1 })
}

// TestFrameBeforeBindDeliveredAfter: the I/O goroutines start in Bind, so
// a frame the peer sends earlier waits in the kernel and is delivered
// once the driver is bound — nothing reaches a nil sink, nothing is lost.
func TestFrameBeforeBindDeliveredAfter(t *testing.T) {
	c, s := dialPair(t, Options{})
	rc := &recorder{}
	c.Bind(0, rc)
	payload := []byte("sent before the peer bound")
	if err := c.Send(pkt(payload)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { comp, _, _ := rc.snapshot(); return comp == 1 })
	time.Sleep(20 * time.Millisecond) // the frame sits in s's socket
	rs := &recorder{}
	s.Bind(0, rs)
	waitUntil(t, func() bool { _, _, arr := rs.snapshot(); return len(arr) == 1 })
	_, _, arr := rs.snapshot()
	if !bytes.Equal(arr[0].Payload, payload) {
		t.Fatalf("payload %q", arr[0].Payload)
	}
}

func TestRoundTripLargePacket(t *testing.T) {
	c, _, _, rs := tcpPair(t)
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := c.Send(pkt(payload)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { _, _, arr := rs.snapshot(); return len(arr) == 1 })
	_, _, arr := rs.snapshot()
	if !bytes.Equal(arr[0].Payload, payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestBidirectional(t *testing.T) {
	c, s, rc, rs := tcpPair(t)
	if err := c.Send(pkt([]byte("ping"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(pkt([]byte("pong"))); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		_, _, a1 := rc.snapshot()
		_, _, a2 := rs.snapshot()
		return len(a1) == 1 && len(a2) == 1
	})
}

func TestManyPacketsInOrder(t *testing.T) {
	c, _, rc, rs := tcpPair(t)
	const n = 50
	for i := 0; i < n; i++ {
		p := pkt([]byte{byte(i)})
		p.Hdr.MsgID = uint64(i)
		if err := c.Send(p); err != nil {
			t.Fatal(err)
		}
		// One packet in flight, as the engine posts them.
		waitUntil(t, func() bool { comp, _, _ := rc.snapshot(); return comp == i+1 })
	}
	waitUntil(t, func() bool { _, _, arr := rs.snapshot(); return len(arr) == n })
	_, _, arr := rs.snapshot()
	for i, p := range arr {
		if p.Hdr.MsgID != uint64(i) {
			t.Fatalf("packet %d has msg %d (TCP must preserve order)", i, p.Hdr.MsgID)
		}
	}
}

func TestSendAfterClose(t *testing.T) {
	c, _, _, _ := tcpPair(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(pkt([]byte("x"))); err == nil {
		t.Fatal("send after close accepted")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestPeerCloseSurfacesReaderErr(t *testing.T) {
	c, s, _, _ := tcpPair(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Err() == nil {
		t.Fatal("reader error not surfaced after peer close")
	}
}

func TestProfileDefaults(t *testing.T) {
	c, _, _, _ := tcpPair(t)
	p := c.Profile()
	if p.Name != "tcp" || p.Bandwidth <= 0 || p.EagerMax <= 0 || p.Latency <= 0 {
		t.Fatalf("profile %+v", p)
	}
}

func TestProfileOverrides(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		d, err := Accept(l, Options{})
		if err == nil {
			d.Close()
		}
	}()
	prof := core.Profile{Name: "wan", Latency: time.Millisecond, Bandwidth: 1e6, EagerMax: 1024}
	c, err := Dial(l.Addr().String(), Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Profile(); got.Name != "wan" || got.Bandwidth != 1e6 || got.EagerMax != 1024 {
		t.Fatalf("profile %+v", got)
	}
}

// TestSmallEagerFrameSendsAboveAggCap: a rail whose EagerMax is 1 KiB
// aggregates at most 960 B, below the engine's AggThreshold. A 2 KiB
// message is neither gathered nor eager there, so it must leave by
// rendezvous rather than wait forever.
func TestSmallEagerFrameSendsAboveAggCap(t *testing.T) {
	client, server := dialPair(t, Options{Profile: core.Profile{EagerMax: 1 << 10}})
	if got := client.Profile().AggMax; got != 1<<10-core.HeaderLen {
		t.Fatalf("AggMax %d, want EagerMax - HeaderLen", got)
	}
	engA := core.New(core.Config{Strategy: strategy.NewAggreg(0)})
	engB := core.New(core.Config{Strategy: strategy.NewAggreg(0)})
	t.Cleanup(func() {
		engA.Close()
		engB.Close()
	})
	ga, gb := engA.NewGate("B"), engB.NewGate("A")
	ga.AddRail(client)
	gb.AddRail(server)

	msg := make([]byte, 2<<10)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	got := make([]byte, len(msg))
	rr := gb.Irecv(1, got)
	sr := ga.Isend(1, msg)
	done := make(chan error, 2)
	go func() { done <- engA.Wait(sr) }()
	go func() { done <- engB.Wait(rr) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("2 KiB message never left a rail with a 1 KiB eager frame")
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted")
	}
}

func TestDialRefused(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Options{}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestName(t *testing.T) {
	c, _, _, _ := tcpPair(t)
	if c.Name() == "" || c.Name()[:4] != "tcp:" {
		t.Fatalf("Name = %q", c.Name())
	}
}
