// Package udpdrv is the UDP rail driver: real datagram sockets under
// the relnet reliability layer. The transport here is deliberately
// dumb — it frames nothing, retries nothing, and treats every socket
// hiccup as loss — because sequencing, fragmentation-by-MTU,
// retransmission, duplicate suppression and ack piggybacking all live
// in internal/relnet. What this package adds is the socket plumbing:
// pooled read buffers (one arena lease per datagram, handed up
// zero-copy), a reader goroutine whose death fails the rail loudly,
// and peer filtering for unconnected sockets (the session layer's UDP
// handshake leaves both ends on unconnected sockets aimed at a fixed
// peer).
//
// The engine sees an event-driven driver: relnet delivers completions
// and arrivals from the reader goroutine (batched through EventBatch
// when several events fall out of one datagram).
package udpdrv

import (
	"errors"
	"net"
	"sync"
	"time"

	"newmad/internal/core"
	"newmad/internal/relnet"
)

// ErrClosed reports a send on a closed transport.
var ErrClosed = errors.New("udpdrv: closed")

// DefaultMTU bounds relnet datagrams. 8 KiB keeps fragmentation cheap
// on loopback and on LAN paths with 9000-byte frames.
const DefaultMTU = 8 << 10

// sockBuf is the socket buffer New requests in each direction. Linux
// caps it at rmem_max and doubles it, so the grant is read back.
const sockBuf = 4 << 20

// Options parameterizes a UDP rail.
type Options struct {
	// Profile declares the rail characteristics; zero gets
	// DefaultProfile.
	Profile core.Profile
	// Rel tunes the reliability layer (RTO, retry budget, window).
	// Zero values derive from the profile and MTU, and a zero Window
	// from the socket's receive buffer (see New); leave Clock nil,
	// so the layer runs on the wall clock a real socket wants.
	Rel relnet.Config
}

// DefaultProfile is the declared profile for an untuned UDP rail:
// loopback/LAN-ish latency and bandwidth, eager up to 32 KiB.
func DefaultProfile() core.Profile {
	return core.Profile{
		Name:      "udp",
		Latency:   200 * time.Microsecond,
		Bandwidth: 1 << 30,
		EagerMax:  32 << 10,
		PIOMax:    8 << 10,
	}
}

// New builds a UDP rail driver over conn. If peer is non-nil the
// socket is treated as unconnected and every datagram is sent to (and
// accepted only from) that address; a nil peer requires a connected
// socket (net.DialUDP). The returned driver is live: its reader is
// running, and Close tears it down. Unless opts.Rel.Window is set, the
// window is sized to the receive buffer granted (windowFor): one that
// overruns the peer's socket buffer drops datagrams on every burst.
func New(conn *net.UDPConn, peer *net.UDPAddr, opts Options) *relnet.Driver {
	// A refused request shows up as a smaller grant, read back below.
	_ = conn.SetReadBuffer(sockBuf)
	_ = conn.SetWriteBuffer(sockBuf)
	rel := opts.Rel
	if rel.Window == 0 {
		if grant, err := recvBuffer(conn); err == nil {
			rel.Window = windowFor(grant)
		}
	}
	tr := NewTransport(conn, peer, opts.Profile)
	d := relnet.Wrap(tr, rel)
	tr.Start()
	return d
}

// windowFor is the relnet window for a receive buffer of grant bytes:
// grant/(4·DefaultMTU), clamped to [1, relnet.DefaultWindow]. On loopback
// an 8 KiB datagram costs ~19 KiB of buffer; the rest is headroom. At
// Linux's default 212992 bytes this gives 6; 8 ran clean, 12 lost 1.6 %.
func windowFor(grant int) int {
	return min(max(grant/(4*DefaultMTU), 1), relnet.DefaultWindow)
}

// Transport is the raw datagram half of the driver, split out so tests
// can interpose a relnet.Flaky between the socket and the reliability
// layer. Use New unless you need that seam: SetRecv/SetFail must be
// installed (by relnet.Wrap) before Start.
type Transport struct {
	conn *net.UDPConn
	peer *net.UDPAddr
	prof core.Profile

	recv func(*core.Buf)
	fail func(error)

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewTransport builds the transport without starting its reader; a
// zero prof gets DefaultProfile.
func NewTransport(conn *net.UDPConn, peer *net.UDPAddr, prof core.Profile) *Transport {
	if prof == (core.Profile{}) {
		prof = DefaultProfile()
	}
	return &Transport{conn: conn, peer: peer, prof: prof}
}

// Start launches the reader goroutine. Call once, after SetRecv and
// SetFail are installed.
func (t *Transport) Start() {
	t.wg.Add(1)
	go t.reader()
}

// Name implements relnet.Transport.
func (t *Transport) Name() string { return "udp:" + t.conn.LocalAddr().String() }

// Profile implements relnet.Transport.
func (t *Transport) Profile() core.Profile { return t.prof }

// MTU implements relnet.Transport.
func (t *Transport) MTU() int { return DefaultMTU }

// SetRecv implements relnet.Transport.
func (t *Transport) SetRecv(fn func(*core.Buf)) { t.recv = fn }

// SetFail implements relnet.Transport.
func (t *Transport) SetFail(fn func(error)) { t.fail = fn }

// Send implements relnet.Transport: one datagram per call, lease
// released on return. Socket errors are reported but not retried —
// to the reliability layer they are losses.
func (t *Transport) Send(f *core.Buf) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		f.Release()
		return ErrClosed
	}
	var err error
	if t.peer != nil {
		_, err = t.conn.WriteToUDP(f.B, t.peer)
	} else {
		_, err = t.conn.Write(f.B)
	}
	f.Release()
	return err
}

// reader pulls datagrams into pooled leases and hands them up. A read
// error with the transport still open is the rail dying (socket closed
// under us, ICMP-surfaced unreachable on a connected socket): report
// it once and stop.
func (t *Transport) reader() {
	defer t.wg.Done()
	for {
		f := core.GetBuf(DefaultMTU)
		n, src, err := t.conn.ReadFromUDP(f.B)
		if err != nil {
			f.Release()
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if !closed && t.fail != nil {
				t.fail(err)
			}
			return
		}
		if t.peer != nil && !sameUDPAddr(src, t.peer) {
			// Stray datagram on an unconnected socket: not our peer.
			f.Release()
			continue
		}
		f.B = f.B[:n]
		t.recv(f)
	}
}

// Close implements relnet.Transport: closes the socket and joins the
// reader, so no read lease is in flight once Close returns. Idempotent.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	_ = t.conn.Close()
	t.wg.Wait()
	return nil
}

// sameUDPAddr reports whether a datagram source matches the fixed peer.
func sameUDPAddr(src, peer *net.UDPAddr) bool {
	return src.Port == peer.Port && (peer.IP.IsUnspecified() || src.IP.Equal(peer.IP))
}

var _ relnet.Transport = (*Transport)(nil)
