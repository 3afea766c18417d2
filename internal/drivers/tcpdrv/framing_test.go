package tcpdrv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/core"
)

// countingConn wraps a net.Conn and snapshots every Write: the framing
// tests below assert how many kernel-bound writes a flush costs and that
// each one carries only whole frames.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *countingConn) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// parseFrames decodes a byte stream of length-prefixed frames, failing
// if the stream ends mid-frame.
func parseFrames(t *testing.T, stream []byte) []*core.Packet {
	t.Helper()
	var pkts []*core.Packet
	for len(stream) > 0 {
		if len(stream) < 4 {
			t.Fatalf("trailing %d bytes: not a whole length prefix", len(stream))
		}
		n := binary.LittleEndian.Uint32(stream)
		stream = stream[4:]
		if uint32(len(stream)) < n {
			t.Fatalf("frame of %d bytes truncated to %d", n, len(stream))
		}
		p, err := core.Unmarshal(stream[:n])
		if err != nil {
			t.Fatalf("corrupt frame: %v", err)
		}
		pkts = append(pkts, p)
		stream = stream[n:]
	}
	return pkts
}

// TestFramingSingleWritePerFrame pins the fix for the historical
// two-syscall framing: on a connection without writev support (net.Pipe
// here), one packet must go out as exactly one Write carrying prefix,
// header and payload together.
func TestFramingSingleWritePerFrame(t *testing.T) {
	a, b := net.Pipe()
	cc := &countingConn{Conn: a}
	d := New(cc, Options{})
	peer := New(b, Options{})
	t.Cleanup(func() { d.Close(); peer.Close() })
	rd, rp := &recorder{}, &recorder{}
	d.Bind(0, rd)
	peer.Bind(0, rp)

	payload := bytes.Repeat([]byte{0xAB}, 300)
	if err := d.Send(pkt(payload)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { _, _, arr := rp.snapshot(); return len(arr) == 1 })

	writes := cc.snapshot()
	if len(writes) != 1 {
		t.Fatalf("one frame cost %d writes, want 1", len(writes))
	}
	pkts := parseFrames(t, writes[0])
	if len(pkts) != 1 || !bytes.Equal(pkts[0].Payload, payload) {
		t.Fatalf("write did not carry exactly the frame: %d packets", len(pkts))
	}
}

// TestSendCompletesWhenWriteReturns pins the event-driven send path: the
// writer reports SendComplete as soon as the frame's write returns, with
// nothing pumping the driver. net.Pipe's synchronous writes make the
// moment observable: the write cannot return before the peer reads.
func TestSendCompletesWhenWriteReturns(t *testing.T) {
	a, b := net.Pipe()
	d := New(a, Options{})
	t.Cleanup(func() {
		d.Close()
		b.Close()
	})
	rd := &recorder{}
	d.Bind(0, rd)

	payload := bytes.Repeat([]byte{7}, 200)
	if err := d.Send(pkt(payload)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if comp, _, _ := rd.snapshot(); comp != 0 {
		t.Fatal("send completed before the peer read the frame")
	}
	want := 4 + core.HeaderLen + len(payload)
	stream := make([]byte, want)
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(b, stream); err != nil {
		t.Fatalf("pipe read: %v", err)
	}
	if pkts := parseFrames(t, stream); len(pkts) != 1 || !bytes.Equal(pkts[0].Payload, payload) {
		t.Fatal("pipe did not carry exactly the frame")
	}
	waitUntil(t, func() bool { comp, _, _ := rd.snapshot(); return comp == 1 })
}

// BenchmarkTCPPingpong is the headline socket benchmark: one round trip
// over loopback TCP per iteration, exercising the vectored send path,
// the pooled reader and event delivery from the I/O goroutines end to
// end. The benchmark goroutine parks on the sinks between legs.
func BenchmarkTCPPingpong(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var server *Driver
	var serr error
	done := make(chan struct{})
	go func() {
		server, serr = Accept(l, Options{})
		close(done)
	}()
	client, err := Dial(l.Addr().String(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	<-done
	if serr != nil {
		b.Fatal(serr)
	}
	defer client.Close()
	defer server.Close()
	rc, rs := newCountSink(), newCountSink()
	client.Bind(0, rc)
	server.Bind(0, rs)

	payload := bytes.Repeat([]byte{0x5A}, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(2 * len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(pkt(payload)); err != nil {
			b.Fatal(err)
		}
		rs.await(int64(i + 1))
		if err := server.Send(pkt(payload)); err != nil {
			b.Fatal(err)
		}
		rc.await(int64(i + 1))
	}
}

// countSink is an Events sink that releases every arrival immediately —
// the benchmark's stand-in for the engine's consume-and-release cycle —
// and signals each one so a waiter can park instead of spinning.
type countSink struct {
	arrivals  atomic.Int64
	completes atomic.Int64
	arrived   chan struct{}
}

func newCountSink() *countSink { return &countSink{arrived: make(chan struct{}, 1)} }

// await blocks until at least n arrivals were delivered.
func (s *countSink) await(n int64) {
	for s.arrivals.Load() < n {
		<-s.arrived
	}
}

func (s *countSink) SendComplete(int) { s.completes.Add(1) }

func (s *countSink) SendFailed(int, *core.Packet, error) {}

func (s *countSink) Arrive(_ int, p *core.Packet) {
	p.Release()
	s.arrivals.Add(1)
	select {
	case s.arrived <- struct{}{}:
	default:
	}
}

func (s *countSink) RailDown(int, error) {}

// TestBadFrameLengthRailDownOnce: the length prefix is the peer's to
// forge, and the reader bounds it by the longest frame the engine posts
// (core.HeaderLen + core.MaxPayload) and the shortest, a bare header. A
// prefix one past either bound is exactly one RailDown naming it, with
// nothing delivered and nothing allocated for the claimed length.
func TestBadFrameLengthRailDownOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		n    uint32
	}{
		{"above the frame bound", core.HeaderLen + core.MaxPayload + 1},
		{"below a header", core.HeaderLen - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := net.Pipe()
			d := New(a, Options{})
			t.Cleanup(func() { d.Close(); b.Close() })
			rec := &recorder{}
			d.Bind(0, rec)
			var prefix [4]byte
			binary.LittleEndian.PutUint32(prefix[:], c.n)
			if _, err := b.Write(prefix[:]); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, func() bool { rec.mu.Lock(); defer rec.mu.Unlock(); return len(rec.downs) > 0 })
			time.Sleep(20 * time.Millisecond)
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.downs) != 1 || len(rec.arrivals) != 0 {
				t.Fatalf("%d RailDowns and %d arrivals, want 1 and 0", len(rec.downs), len(rec.arrivals))
			}
			if want := fmt.Sprintf("bad frame length %d", c.n); !strings.Contains(rec.downs[0].Error(), want) {
				t.Fatalf("RailDown %q does not name %q", rec.downs[0], want)
			}
		})
	}
}
