// Package tcpdrv is the transmit-layer driver for real TCP sockets: the
// legacy-sockets driver of the paper's transmit layer, and the way this
// reproduction runs the engine between actual processes. One driver is
// one connection; multi-rail configurations use several connections
// (possibly over different physical interfaces) as heterogeneous rails.
//
// Framing is a 4-byte little-endian length followed by a marshalled
// packet. The driver is event-driven, with two I/O goroutines started by
// Bind. Send encodes the length prefix and header into a pooled staging
// buffer and hands the packet to the writer goroutine, which issues it
// as one writev(2): the staging buffer, then the payload — one segment,
// or an aggregate's record headers and records, gathered from the
// application buffers — with zero payload copies in user space (on
// connections without writev the frame is coalesced into one pooled
// buffer and one Write). Since the syscall, not the copy, is a frame's
// cost, the rail declares its eager frame as its aggregation cap
// (Profile.AggMax = EagerMax − HeaderLen), so one writev carries as many
// small messages as a frame holds. The moment the write returns,
// the writer reports SendComplete (or SendFailed), so the engine hands
// the idle rail its next packet without delay. The reader goroutine
// parses frames into arena leases and delivers each through
// Events.Arrive as soon as it is whole; a dead reader (peer gone,
// corrupt frame) is reported once as RailDown. Frames the peer sends
// before Bind wait in the kernel until the reader starts.
package tcpdrv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"newmad/internal/core"
)

// ErrClosed reports use of a closed driver.
var ErrClosed = errors.New("tcpdrv: closed")

// Options configures a TCP rail.
type Options struct {
	// Profile declares the rail characteristics to the engine. Zero
	// values get defaults (see DefaultProfile); AggMax is derived from
	// EagerMax.
	Profile core.Profile
}

// DefaultProfile is a conservative loopback-TCP profile. New always
// derives the rail's AggMax from its EagerMax.
func DefaultProfile() core.Profile {
	return core.Profile{
		Name:      "tcp",
		Latency:   30 * time.Microsecond,
		Bandwidth: 1200e6,
		EagerMax:  64 << 10,
		PIOMax:    0,
	}
}

// Driver is one TCP rail.
type Driver struct {
	conn net.Conn
	tc   *net.TCPConn  // non-nil when conn supports writev via net.Buffers
	br   *bufio.Reader // reader-goroutine-only; batches length-prefix reads
	prof core.Profile

	// rail and ev are set by Bind before the I/O goroutines start.
	rail int
	ev   core.Events

	// sendq holds the one packet the engine may have posted: the engine
	// waits for SendComplete before posting the next.
	sendq chan frame
	// iov and bufs are the writer goroutine's scratch for one frame:
	// the staging buffer, then the payload slices.
	iov, bufs net.Buffers

	mu     sync.Mutex
	closed bool
	rerr   error

	wg sync.WaitGroup
}

// frame is a posted packet with its length prefix and header already
// encoded into a pooled staging buffer.
type frame struct {
	pkt *core.Packet
	hdr *core.Buf
}

// New wraps an established connection as a rail.
func New(conn net.Conn, opts Options) *Driver {
	prof := opts.Profile
	def := DefaultProfile()
	if prof.Name == "" {
		prof.Name = def.Name
	}
	if prof.Latency == 0 {
		prof.Latency = def.Latency
	}
	if prof.Bandwidth == 0 {
		prof.Bandwidth = def.Bandwidth
	}
	if prof.EagerMax == 0 {
		prof.EagerMax = def.EagerMax
	}
	// An aggregate fills at most one eager frame, so the reader's lease
	// stays in the frame's size class. EagerMax is the only input: a
	// caller's AggMax is overwritten (floored at 1, since 0 would mean
	// the engine's AggThreshold).
	prof.AggMax = max(prof.EagerMax-core.HeaderLen, 1)
	tc, _ := conn.(*net.TCPConn)
	if tc != nil {
		// Nagle stays off: a small frame must not wait for the peer's ack.
		_ = tc.SetNoDelay(true)
	}
	return &Driver{
		conn:  conn,
		tc:    tc,
		br:    bufio.NewReaderSize(conn, 64<<10),
		prof:  prof,
		sendq: make(chan frame, 1),
		iov:   make(net.Buffers, 0, 2),
	}
}

// Dial connects to addr and returns the rail.
func Dial(addr string, opts Options) (*Driver, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpdrv: dial %s: %w", addr, err)
	}
	return New(conn, opts), nil
}

// Accept waits for one connection on l and returns the rail.
func Accept(l net.Listener, opts Options) (*Driver, error) {
	conn, err := l.Accept()
	if err != nil {
		return nil, fmt.Errorf("tcpdrv: accept: %w", err)
	}
	return New(conn, opts), nil
}

// Name implements core.Driver.
func (d *Driver) Name() string { return "tcp:" + d.conn.RemoteAddr().String() }

// Profile implements core.Driver.
func (d *Driver) Profile() core.Profile { return d.prof }

// Bind implements core.Driver: it records the engine callbacks and
// starts the writer and reader goroutines, so no event can reach an
// unbound sink.
func (d *Driver) Bind(rail int, ev core.Events) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ev != nil || d.closed {
		return
	}
	d.rail = rail
	d.ev = ev
	d.wg.Add(2)
	go d.writer()
	go d.reader()
}

// Send implements core.Driver: encodes the frame's length prefix and
// header — here, where the caller owns the packet, so the writer only
// ever reads it — and hands the packet to the writer goroutine. The
// payload is referenced, not copied, until written.
func (d *Driver) Send(p *core.Packet) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	hdr := core.GetBuf(4 + core.HeaderLen)
	n := p.Len()
	p.Hdr.PayLen = uint32(n)
	binary.LittleEndian.PutUint32(hdr.B, uint32(core.HeaderLen+n))
	core.EncodeHeader(hdr.B[4:], &p.Hdr)
	select {
	case d.sendq <- frame{pkt: p, hdr: hdr}:
		return nil
	default:
		// The engine posts one packet at a time per rail, so a full
		// queue means the contract was violated.
		hdr.Release()
		return fmt.Errorf("tcpdrv: send queue full on %s", d.Name())
	}
}

// writer writes each posted frame and reports its outcome the moment the
// write returns. After Close it drains what is left, whose writes fail
// on the closed connection and are reported as such.
func (d *Driver) writer() {
	defer d.wg.Done()
	for f := range d.sendq {
		d.iov = f.pkt.AppendPayload(append(d.iov[:0], f.hdr.B))
		var err error
		if d.tc != nil {
			err = d.writeVectored()
		} else {
			err = d.writeCoalesced()
		}
		clear(d.iov) // drop the payload references
		f.hdr.Release()
		if err != nil {
			d.ev.SendFailed(d.rail, f.pkt, err)
		} else {
			d.ev.SendComplete(d.rail)
		}
	}
}

// writeVectored sends the frame's slices as one writev (empty ones are
// skipped); payload bytes are never copied.
func (d *Driver) writeVectored() error {
	// WriteTo consumes its receiver, so write through bufs and keep iov
	// to drop the payload references afterwards.
	d.bufs = d.iov
	_, err := d.bufs.WriteTo(d.tc)
	return err
}

// writeCoalesced sends the frame as one Write for connections without
// writev support: its slices land in a single pooled staging buffer, so
// a frame never costs two syscalls.
func (d *Driver) writeCoalesced() error {
	n := 0
	for _, b := range d.iov {
		n += len(b)
	}
	b := core.GetBuf(n)
	n = 0
	for _, s := range d.iov {
		n += copy(b.B[n:], s)
	}
	_, err := d.conn.Write(b.B)
	b.Release()
	return err
}

// reader parses frames and delivers each as it completes. It exits on
// the first read or framing error.
func (d *Driver) reader() {
	defer d.wg.Done()
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(d.br, lenBuf[:]); err != nil {
			d.readerDone(err)
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < core.HeaderLen || n > core.HeaderLen+core.MaxPayload {
			d.readerDone(fmt.Errorf("tcpdrv: bad frame length %d", n))
			return
		}
		f := core.GetBuf(int(n))
		if _, err := io.ReadFull(d.br, f.B); err != nil {
			f.Release()
			d.readerDone(err)
			return
		}
		pkt, err := core.UnmarshalFrame(f) // releases f on error
		if err != nil {
			d.readerDone(err)
			return
		}
		d.ev.Arrive(d.rail, pkt)
	}
}

// readerDone records the reader's terminal error and reports it as
// RailDown — unless the driver was closed, which is what failed the
// read. The reader exits right after, so the report happens once.
func (d *Driver) readerDone(err error) {
	d.mu.Lock()
	closed := d.closed
	if !closed {
		d.rerr = err
	}
	d.mu.Unlock()
	if !closed {
		d.ev.RailDown(d.rail, err)
	}
}

// Err reports a terminal reader error, if any (io.EOF after a clean peer
// close).
func (d *Driver) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rerr
}

// Close implements core.Driver. Every call, the first or a repeat, returns
// only once the I/O goroutines have exited, delivering their last events
// on the way out; so Close must not be called synchronously from one of
// the driver's own event callbacks.
func (d *Driver) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.sendq)
	err := d.conn.Close()
	d.wg.Wait()
	return err
}

var _ core.Driver = (*Driver)(nil)
