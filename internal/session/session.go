// Package session bootstraps real multi-rail connections between two
// engine processes: one control TCP connection negotiates the session
// (library version, peer names, rail addresses, protocols and
// profiles), then each rail is brought up, authenticated with a preamble
// token, and attached to a gate in a deterministic order. It replaces
// the hand-wiring of listeners and dials that cmd/nmad-pingpong does
// manually. Rails are TCP streams by default; a RailSpec with Proto
// "udp" brings the rail up over datagram sockets under the relnet
// reliability layer (see udp.go), Proto "shm" brings it up over a
// shared-memory segment for same-host peers (see shm.go), and a gate
// may mix all three kinds — heterogeneous rails are the point of the
// multi-rail design.
//
// Between sessions the server holds only its control listener. Every
// rail kind is one leg of three steps, run per session: the server
// offers a fresh endpoint — a listener per tcp rail, a data socket per
// udp rail, a segment per shm rail — and names it in the hello; the
// client attaches to it and presents the session token in a preamble;
// the server confirms the preamble — on the accepted tcp connection, on
// the udp data socket (answered on the control connection), or on the
// control connection for shm.
//
// Each session gate is its own progress domain: traffic to different
// peers on one engine proceeds in parallel, and each rail's I/O
// goroutines report its events into the gate as they happen. If the
// peer process dies, the rails' readers fail, the drivers report
// RailDown, and the engine fails the gate's outstanding requests —
// waiters get an error instead of hanging. A downed rail stays down; the
// strategies route around it for the rest of the session.
package session

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/drivers/udpdrv"
	"newmad/internal/shmring"
)

// Version is the wire protocol version; both ends must match. Bumped
// to 2 when the engine gained the KRecvAbort control packet: a version-1
// peer would fail a healthy rail on the unknown kind. Bumped to 3 when
// rails gained a proto field: a version-2 peer would dial a udp rail's
// address with TCP and hang on a connect nothing accepts. Bumped to 4
// when rails gained the shm proto: an shm rail's Addr is a /dev/shm
// segment name, not a socket address, and the rail is confirmed by a
// preamble on the control channel — a version-3 peer would try to dial
// the segment name as a hostname. Bumped to 5 when a udp rail's
// confirmation moved from an ack datagram to the control channel: a
// version-4 client would wait for an ack datagram that never comes.
// Bumped to 6 when a tcp rail revival moved off the coordination
// connection onto a fresh listener named in the ack: a version-5 client
// would run engine frames over the coordination connection. Revival's
// optional hello and ack fields were later dropped without a bump.
const Version = 6

// DefaultHandshakeTimeout bounds a session handshake when Options leaves
// HandshakeTimeout zero.
const DefaultHandshakeTimeout = 30 * time.Second

// Options parameterizes session establishment. The zero value is ready
// to use.
type Options struct {
	// HandshakeTimeout bounds the negotiation with one peer: the
	// control-channel hello exchange plus every rail's bring-up and
	// preamble. Zero gets DefaultHandshakeTimeout. A ctx whose deadline
	// is tighter wins.
	HandshakeTimeout time.Duration
}

// handshakeDeadline computes the absolute deadline for one handshake:
// HandshakeTimeout from now, tightened by ctx's own deadline.
func (o Options) handshakeDeadline(ctx context.Context) time.Time {
	d := o.HandshakeTimeout
	if d <= 0 {
		d = DefaultHandshakeTimeout
	}
	t := time.Now().Add(d)
	if cd, ok := ctx.Deadline(); ok && cd.Before(t) {
		t = cd
	}
	return t
}

// RailSpec declares one rail a server offers.
type RailSpec struct {
	// Addr names the interface a tcp or udp rail binds ("host:0"). Each
	// session binds a fresh listener or data socket there, so the port
	// must be 0. A wildcard host ("0.0.0.0:0", "[::]:0") is advertised
	// under the IP the client reached the control listener by.
	Addr string
	// Proto selects the rail transport: "" or "tcp" is a stream rail
	// (tcpdrv); "udp" is a datagram rail whose loss, ordering and
	// retransmission are handled by the relnet reliability layer
	// (udpdrv); "shm" is a same-host shared-memory rail (shmdrv) whose
	// Addr is ignored — each accepted session gets a fresh anonymous
	// segment whose name crosses the control channel. A gate may mix all
	// kinds — the engine's strategies stripe across them like any other
	// heterogeneous rail set.
	Proto string
	// Profile declares the rail characteristics (zero values get the
	// driver's defaults).
	Profile core.Profile
}

// hello is the control-channel negotiation message. Unknown fields are
// ignored on decode, so a peer that still sends fields this end dropped
// interoperates at the same Version.
type hello struct {
	Version int        `json:"version"`
	Name    string     `json:"name"`
	Token   string     `json:"token,omitempty"`
	Rails   []railInfo `json:"rails,omitempty"`
}

type railInfo struct {
	Addr        string  `json:"addr"`
	Proto       string  `json:"proto,omitempty"` // "" means tcp
	Name        string  `json:"name"`
	LatencyNS   int64   `json:"latency_ns"`
	BandwidthBS float64 `json:"bandwidth_bytes_per_sec"`
	EagerMax    int     `json:"eager_max"`
	PIOMax      int     `json:"pio_max"`
}

// profile reconstructs the rail profile a server advertised.
func (ri railInfo) profile() core.Profile {
	return core.Profile{
		Name: ri.Name, Latency: time.Duration(ri.LatencyNS), Bandwidth: ri.BandwidthBS,
		EagerMax: ri.EagerMax, PIOMax: ri.PIOMax,
	}
}

// preamble authenticates a rail connection to its session.
type preamble struct {
	Token string `json:"token"`
	Rail  int    `json:"rail"`
}

// railAck confirms a udp rail's preamble on the control connection.
type railAck struct {
	OK bool `json:"ok"`
}

// Server accepts multi-rail sessions.
type Server struct {
	name  string
	eng   *core.Engine
	ctrl  net.Listener
	specs []RailSpec
	opts  Options

	mu     sync.Mutex
	closed bool
}

// Listen starts a server for the given engine: a control listener on
// ctrlAddr. Rail endpoints are opened per session by Accept. ctx bounds
// the listener setup; opts.HandshakeTimeout governs each Accept.
func Listen(ctx context.Context, eng *core.Engine, name, ctrlAddr string, rails []RailSpec, opts Options) (*Server, error) {
	if len(rails) == 0 {
		return nil, fmt.Errorf("session: no rails offered")
	}
	for i, spec := range rails {
		var err error
		switch spec.Proto {
		case "", "tcp", "udp":
			var a *net.TCPAddr
			if a, err = net.ResolveTCPAddr("tcp", spec.Addr); err == nil && a.Port != 0 {
				err = fmt.Errorf("rail address %s: each session binds a fresh socket, so the port must be 0", spec.Addr)
			}
		case "shm":
			if !shmdrv.Supported() {
				err = fmt.Errorf("shm rails unsupported on this platform")
			}
		default:
			err = fmt.Errorf("unknown proto %q", spec.Proto)
		}
		if err != nil {
			return nil, fmt.Errorf("session: rail %d: %w", i, err)
		}
	}
	var lc net.ListenConfig
	ctrl, err := lc.Listen(ctx, "tcp", ctrlAddr)
	if err != nil {
		return nil, fmt.Errorf("session: control listen: %w", err)
	}
	return &Server{name: name, eng: eng, ctrl: ctrl, specs: rails, opts: opts}, nil
}

// ControlAddr returns the bound control address (useful with ":0").
func (s *Server) ControlAddr() string { return s.ctrl.Addr().String() }

// Accept negotiates one incoming session and returns the gate to the
// peer plus the peer's name. Rails are attached in spec order. Waiting
// for a client is bounded only by ctx (a server may listen
// indefinitely); once a client connects, the negotiation must finish
// within the server's HandshakeTimeout, ctx permitting.
func (s *Server) Accept(ctx context.Context) (*core.Gate, string, error) {
	ctxDeadline, _ := ctx.Deadline() // zero: wait for a client as long as ctx allows
	conn, err := acceptConn(ctx, s.ctrl, ctxDeadline)
	if err != nil {
		return nil, "", fmt.Errorf("session: accept control: %w", err)
	}
	defer conn.Close()
	hsDeadline := s.opts.handshakeDeadline(ctx)
	// Deadline first, guard second (the acceptConn order): armed the
	// other way round, a cancel poke firing in between would be
	// overwritten and the handshake would block to the full timeout.
	conn.SetDeadline(hsDeadline)
	stop := guardCtx(ctx, conn)
	defer stop()
	ctrl := ctrlConn{conn, bufio.NewReader(conn)}
	var cli hello
	if err := readJSON(ctrl.r, &cli); err != nil {
		return nil, "", fmt.Errorf("session: read client hello: %w", ctxErrOr(ctx, err))
	}
	if cli.Version != Version {
		writeJSON(conn, hello{Version: Version, Name: s.name})
		return nil, "", fmt.Errorf("session: version mismatch: client %d, server %d", cli.Version, Version)
	}
	token := fmt.Sprintf("%08x%08x", rand.Uint32(), rand.Uint32())
	// Bring every rail up and authenticate it before touching the
	// engine: a mid-handshake failure or ctx cancellation must not leave
	// a half-railed gate registered (the engine has no gate removal), so
	// the gate is created only once the whole handshake has succeeded
	// and every failure path closes the offered endpoints.
	srv := hello{Version: Version, Name: s.name, Token: token, Rails: make([]railInfo, len(s.specs))}
	eps := make([]railEndpoint, len(s.specs))
	for i, spec := range s.specs {
		if eps[i], srv.Rails[i], err = offerRail(spec, conn.LocalAddr()); err != nil {
			closeAll(eps)
			return nil, "", fmt.Errorf("session: rail %d offer: %w", i, err)
		}
	}
	if err := writeJSON(conn, srv); err != nil {
		closeAll(eps)
		return nil, "", fmt.Errorf("session: write server hello: %w", ctxErrOr(ctx, err))
	}
	for i := range eps {
		if err := eps[i].confirm(ctx, ctrl, preamble{Token: token, Rail: i}, hsDeadline); err != nil {
			closeAll(eps)
			return nil, "", fmt.Errorf("session: rail %d handshake: %w", i, ctxErrOr(ctx, err))
		}
	}
	gate := s.eng.NewGate(cli.Name)
	for i, ep := range eps {
		gate.AddRail(ep.driver(s.specs[i].Profile))
	}
	return gate, cli.Name, nil
}

// ctrlConn is the session's control connection, which carries every
// rail leg's control half, with the one reader for everything its peer
// sends on it.
type ctrlConn struct {
	net.Conn
	r *bufio.Reader
}

// offerRail is the first step of a rail's leg, on the server: it opens
// the rail's per-session endpoint — a fresh listener for a tcp rail, a
// fresh data socket for a udp rail, a fresh segment (side 0) for an shm
// rail — and describes it for the client. local is the local address
// of the connection the offer crosses. On error nothing is left open.
func offerRail(spec RailSpec, local net.Addr) (railEndpoint, railInfo, error) {
	var ep railEndpoint
	var addr string
	var err error
	prof := spec.Profile
	switch spec.Proto {
	case "udp":
		var pc net.PacketConn
		if pc, err = net.ListenPacket("udp", spec.Addr); err == nil {
			ep.udp = pc.(*net.UDPConn)
			addr = advertise(pc.LocalAddr(), local)
		}
	case "shm":
		if ep.shm, err = shmdrv.Create(shmring.RandomName(), shmdrv.Options{Profile: prof}); err == nil {
			// The hello advertises the driver's effective profile, so a
			// zero spec profile crosses as shmdrv's defaults, not zeros.
			addr, prof = ep.shm.SegName(), ep.shm.Profile()
		}
	default:
		if ep.ln, err = net.Listen("tcp", spec.Addr); err == nil {
			addr = advertise(ep.ln.Addr(), local)
		}
	}
	return ep, railInfo{
		Addr: addr, Proto: spec.Proto, Name: prof.Name,
		LatencyNS: prof.Latency.Nanoseconds(), BandwidthBS: prof.Bandwidth,
		EagerMax: prof.EagerMax, PIOMax: prof.PIOMax,
	}, err
}

// advertise names a bound address the way the client can reach it. A
// wildcard bind has no routable IP of its own, so it is named by local's
// — the IP of the connection the client already reached this server by.
func advertise(bound, local net.Addr) string {
	host, port, _ := net.SplitHostPort(bound.String())
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		host, _, _ = net.SplitHostPort(local.String())
	}
	return net.JoinHostPort(host, port)
}

// confirm is the last step of a rail's leg, on the server: it waits for
// the client's preamble — on a connection accepted from the offered tcp
// listener, which then closes; as a datagram on the offered udp data
// socket, confirmed on ctrl; or, for shm, on ctrl itself — and leaves ep
// ready for its driver.
func (ep *railEndpoint) confirm(ctx context.Context, ctrl ctrlConn, pre preamble, deadline time.Time) (err error) {
	switch {
	case ep.shm != nil:
		return expectPreamble(ctrl.r, pre)
	case ep.udp != nil:
		ep.udpPeer, err = confirmUDPRail(ctx, ep.udp, ctrl, pre, deadline)
		return err
	}
	ep.tcp, err = acceptTCPRail(ctx, ep.ln, pre, deadline)
	ep.ln.Close()
	ep.ln = nil
	return err
}

// attach is the client's step of a rail's leg: it reaches the endpoint
// the server offered as ri — dialing a tcp rail, announcing a fresh
// socket to a udp rail's data socket, mapping an shm rail's segment —
// and presents pre. A udp rail's confirmation arrives on ctrl.
func attach(ctx context.Context, ctrl ctrlConn, ri railInfo, pre preamble, deadline time.Time) (ep railEndpoint, err error) {
	switch ri.Proto {
	case "", "tcp":
		ep.tcp, err = dialTCPRail(ctx, ri.Addr, pre, deadline)
	case "udp":
		ep.udp, ep.udpPeer, err = attachUDPRail(ctrl.r, ri.Addr, pre)
	case "shm":
		ep.shm, err = attachShmRail(ctrl, ri, pre)
	default:
		err = fmt.Errorf("unknown proto %q", ri.Proto)
	}
	return ep, err
}

// acceptTCPRail accepts one rail connection on l and authenticates its
// preamble. The preamble is read without buffering ahead: engine frames
// may already be queued behind it, and a buffered reader would swallow
// them before the driver takes over the socket.
func acceptTCPRail(ctx context.Context, l net.Listener, pre preamble, deadline time.Time) (net.Conn, error) {
	rc, err := acceptConn(ctx, l, deadline)
	if err != nil {
		return nil, err
	}
	if err := guarded(ctx, rc, deadline, func() error { return expectPreamble(unbuffered{rc}, pre) }); err != nil {
		rc.Close()
		return nil, err
	}
	return rc, nil
}

// dialTCPRail dials one rail and sends its preamble.
func dialTCPRail(ctx context.Context, addr string, pre preamble, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	rc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := guarded(ctx, rc, deadline, func() error { return writeJSON(rc, pre) }); err != nil {
		rc.Close()
		return nil, err
	}
	return rc, nil
}

// deadliner is the deadline surface shared by net conns and listeners
// (*net.TCPListener and every net.Conn implement it).
type deadliner interface{ SetDeadline(time.Time) error }

// guardCtx arranges for c's deadline to be poked into the past the
// moment ctx is cancelled, failing any blocked read, write or accept
// promptly. The returned stop must be called when the guarded phase
// ends; it reports whether the poke had not yet fired.
func guardCtx(ctx context.Context, c deadliner) (stop func() bool) {
	return context.AfterFunc(ctx, func() { _ = c.SetDeadline(time.Unix(1, 0)) })
}

// ctxErrOr substitutes ctx's error for a socket timeout it provoked.
// Socket deadlines here are derived from ctx's own deadline, and the
// netpoller timer can fire a hair before context's internal timer
// publishes ctx.Err(); a timeout observed at or after the ctx deadline
// is therefore reported as context.DeadlineExceeded, as the caller was
// promised.
func ctxErrOr(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if t, ok := ctx.Deadline(); ok && !time.Now().Before(t) {
			return context.DeadlineExceeded
		}
	}
	return err
}

// acceptConn accepts one connection from l, interruptible by ctx and
// bounded by the absolute deadline (zero = none). The listener deadline
// is cleared again on return so l stays reusable; an error caused by
// ctx comes back as ctx.Err(). A cancel poke that races the clear can
// leave the listener's deadline in the past, which is why acceptConn
// (re)sets the deadline first thing on every call — reuse the listener
// through here, not through bare Accept calls.
func acceptConn(ctx context.Context, l net.Listener, deadline time.Time) (net.Conn, error) {
	if dl, ok := l.(deadliner); ok {
		_ = dl.SetDeadline(deadline)
		stop := guardCtx(ctx, dl)
		defer func() {
			stop()
			_ = dl.SetDeadline(time.Time{})
		}()
	}
	conn, err := l.Accept()
	if err != nil {
		return nil, ctxErrOr(ctx, err)
	}
	return conn, nil
}

// guarded runs one handshake step on a rail socket under the handshake
// deadline and ctx's cancellation poke, then clears the deadline for
// the driver. A false guard stop means ctx was cancelled and its poke is
// running (or already ran): it could land after the clear and poison the
// rail, so the step fails with ctx's error — the handshake is void.
func guarded(ctx context.Context, c deadliner, deadline time.Time, step func() error) error {
	c.SetDeadline(deadline)
	stop := guardCtx(ctx, c)
	err := step()
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err == nil {
		c.SetDeadline(time.Time{})
	}
	return err
}

// railEndpoint is one rail between offer and gate attachment: a tcp
// rail's offered listener, then its authenticated stream; a UDP socket
// aimed at a fixed peer; or an already-running shared-memory driver.
type railEndpoint struct {
	ln      net.Listener
	tcp     net.Conn
	udp     *net.UDPConn
	udpPeer *net.UDPAddr
	shm     *shmdrv.Driver
}

func (e railEndpoint) close() {
	switch {
	case e.shm != nil:
		e.shm.Close()
	case e.udp != nil:
		e.udp.Close()
	case e.ln != nil:
		e.ln.Close()
	case e.tcp != nil:
		e.tcp.Close()
	}
}

func closeAll(eps []railEndpoint) {
	for _, e := range eps {
		e.close()
	}
}

// driver builds the endpoint's rail driver. A UDP endpoint comes up
// under the relnet reliability layer (udpdrv.New wraps and starts it);
// zero relnet knobs derive from the rail profile, on a wall clock. An
// shm endpoint was constructed during the handshake (the profile was
// baked in then) and only needs handing over.
func (e railEndpoint) driver(prof core.Profile) core.Driver {
	if e.shm != nil {
		return e.shm
	}
	if e.udp != nil {
		return udpdrv.New(e.udp, e.udpPeer, udpdrv.Options{Profile: prof})
	}
	return tcpdrv.New(e.tcp, tcpdrv.Options{Profile: prof})
}

// Close shuts the control listener down.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.ctrl.Close()
}

// Connect dials a server's control address and brings up every offered
// rail, returning the gate and the server's name. The whole negotiation
// is bounded by opts.HandshakeTimeout and by ctx, whichever is tighter;
// ctx cancellation pokes the sockets' deadlines so blocked dials and
// reads fail promptly with ctx's error.
func Connect(ctx context.Context, eng *core.Engine, name, ctrlAddr string, opts Options) (*core.Gate, string, error) {
	hsDeadline := opts.handshakeDeadline(ctx)
	dialer := net.Dialer{Deadline: hsDeadline}
	conn, err := dialer.DialContext(ctx, "tcp", ctrlAddr)
	if err != nil {
		return nil, "", fmt.Errorf("session: dial control %s: %w", ctrlAddr, ctxErrOr(ctx, err))
	}
	defer conn.Close()
	conn.SetDeadline(hsDeadline) // before arming the guard; see Accept
	stop := guardCtx(ctx, conn)
	defer stop()
	if err := writeJSON(conn, hello{Version: Version, Name: name}); err != nil {
		return nil, "", fmt.Errorf("session: write hello: %w", ctxErrOr(ctx, err))
	}
	// One reader for everything the server sends on the control
	// connection: the hello, then each udp rail's confirmation.
	ctrl := ctrlConn{conn, bufio.NewReader(conn)}
	var srv hello
	if err := readJSON(ctrl.r, &srv); err != nil {
		return nil, "", fmt.Errorf("session: read server hello: %w", ctxErrOr(ctx, err))
	}
	if srv.Version != Version {
		return nil, "", fmt.Errorf("session: version mismatch: server %d, client %d", srv.Version, Version)
	}
	if len(srv.Rails) == 0 {
		return nil, "", fmt.Errorf("session: server offered no rails")
	}
	// As in Accept: bring up and authenticate every rail before creating
	// the gate, so a failure mid-bring-up leaks neither sockets nor a
	// half-railed engine gate.
	eps := make([]railEndpoint, len(srv.Rails))
	for i, ri := range srv.Rails {
		if eps[i], err = attach(ctx, ctrl, ri, preamble{Token: srv.Token, Rail: i}, hsDeadline); err != nil {
			closeAll(eps)
			return nil, "", fmt.Errorf("session: rail %d %s: %w", i, ri.Addr, ctxErrOr(ctx, err))
		}
	}
	gate := eng.NewGate(srv.Name)
	for i, ep := range eps {
		gate.AddRail(ep.driver(srv.Rails[i].profile()))
	}
	return gate, srv.Name, nil
}

func writeJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// maxLine caps one session JSON line: a hello naming hundreds of rails
// fits, and a peer that never sends a newline cannot make a handshake
// buffer without bound.
const maxLine = 64 << 10

var errLineTooLong = errors.New("session: control line longer than 64 KiB")

// readJSON reads one newline-terminated JSON value of at most maxLine
// bytes. ReadByte on a bufio.Reader is a memory read; unbuffered is the
// reader for connections that must not be read ahead.
func readJSON(r io.ByteReader, v any) error {
	var line []byte
	for {
		b, err := r.ReadByte()
		if err != nil {
			return err
		}
		if b == '\n' {
			return json.Unmarshal(line, v)
		}
		if len(line) == maxLine {
			return errLineTooLong
		}
		line = append(line, b)
	}
}

// unbuffered reads a connection one byte per Read, consuming nothing
// past the bytes it returns. Used where the connection is subsequently
// handed to a driver and over-reading would lose frames.
type unbuffered struct{ net.Conn }

func (u unbuffered) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(u.Conn, b[:])
	return b[0], err
}

// expectPreamble reads one preamble line and checks that it is want.
func expectPreamble(r io.ByteReader, want preamble) error {
	var got preamble
	if err := readJSON(r, &got); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("bad preamble (rail %d)", got.Rail)
	}
	return nil
}
