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
// on loopback and on LAN paths with 9000-byte frames; set Options.MTU to
// ~1400 for conservative WAN paths. Both ends of a rail must agree —
// a datagram above the receiver's MTU is truncated by the socket layer
// and discarded as garbage.
const DefaultMTU = 8 << 10

// Options parameterizes a UDP rail.
type Options struct {
	// Profile declares the rail characteristics; zero gets
	// DefaultProfile.
	Profile core.Profile
	// MTU caps datagram size; zero gets DefaultMTU.
	MTU int
	// Rel tunes the reliability layer (RTO, retry budget, window).
	// Zero values derive from the profile and MTU; leave Clock nil, so
	// the layer runs on the wall clock a real socket wants.
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
// running, and Close tears it down.
func New(conn *net.UDPConn, peer *net.UDPAddr, opts Options) *relnet.Driver {
	tr := NewTransport(conn, peer, opts.MTU, opts.Profile)
	d := relnet.Wrap(tr, opts.Rel)
	tr.Start()
	return d
}

// Transport is the raw datagram half of the driver, split out so tests
// can interpose a relnet.Flaky between the socket and the reliability
// layer. Use New unless you need that seam: SetRecv/SetFail must be
// installed (by relnet.Wrap) before Start.
type Transport struct {
	conn *net.UDPConn
	peer *net.UDPAddr
	mtu  int
	prof core.Profile

	recv func(*core.Buf)
	fail func(error)

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewTransport builds the transport without starting its reader; mtu
// and prof zero values get the package defaults.
func NewTransport(conn *net.UDPConn, peer *net.UDPAddr, mtu int, prof core.Profile) *Transport {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	if prof == (core.Profile{}) {
		prof = DefaultProfile()
	}
	return &Transport{conn: conn, peer: peer, mtu: mtu, prof: prof}
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
func (t *Transport) MTU() int { return t.mtu }

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
		f := core.GetBuf(t.mtu)
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
