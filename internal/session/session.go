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
// Between sessions the server holds only its TCP listeners. Accept
// offers every other rail afresh per session — a new data socket per
// udp rail, a new segment per shm rail — names it in the hello, and
// confirms the rails in spec order: a tcp rail by the preamble on its
// accepted connection, an shm rail by the client's preamble on the
// control connection, a udp rail by the client's preamble datagram,
// answered on the control connection. A revival runs the same tcp and
// udp legs over a resurrection connection (see resurrect.go).
//
// Each session gate is its own progress domain: traffic to different
// peers on one engine proceeds in parallel, and each rail's I/O
// goroutines report its events into the gate as they happen. If the
// peer process dies, the rails' readers fail, the
// drivers report RailDown, and the engine fails the gate's outstanding
// requests — waiters get an error instead of hanging.
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
	"newmad/internal/netx"
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
const Version = 5

// DefaultHandshakeTimeout bounds a session handshake when Options leaves
// HandshakeTimeout zero.
const DefaultHandshakeTimeout = 30 * time.Second

// Options parameterizes session establishment. The zero value is ready
// to use.
type Options struct {
	// HandshakeTimeout bounds the negotiation with one peer: the
	// control-channel hello exchange plus every rail's bring-up and
	// preamble. Zero gets DefaultHandshakeTimeout. A ctx whose deadline
	// is tighter wins; it replaces the previously hardcoded 30-second
	// socket deadlines.
	HandshakeTimeout time.Duration
	// Resurrect (server side) opens an extra TCP listener, advertised to
	// clients in the server hello, through which a downed tcp or udp rail
	// of an established session can be brought back: the client presents
	// the session token and rail index, the server re-attaches a fresh
	// connection to the gate, and scheduling (hedging, adaptive
	// stripping) picks the revived rail up through its estimator. See
	// resurrect.go.
	Resurrect bool
	// Probe (client side) enables periodic rail resurrection: every
	// Probe interval a background goroutine re-dials any downed tcp or
	// udp rail against the server's resurrection listener. Zero disables
	// probing. Call StopProbe(gate) before closing the engine.
	Probe time.Duration
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

// guardCtx, ctxErrOr and acceptConn are the shared ctx-to-socket-
// deadline-poke machinery, kept in internal/netx so tcpdrv and session
// stay on one copy of the pattern.
var (
	guardCtx   = netx.Guard
	ctxErrOr   = netx.CtxErrOr
	acceptConn = netx.AcceptConn
)

// RailSpec declares one rail a server offers.
type RailSpec struct {
	// Addr is the listen address for this rail ("host:port", port 0 for
	// ephemeral). A udp rail binds a fresh data socket per session on
	// Addr's host, so its port must be 0.
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

// hello is the control-channel negotiation message. ResurrectAddr is
// optional (a field absent on either side just disables resurrection),
// so adding it needed no Version bump.
type hello struct {
	Version       int        `json:"version"`
	Name          string     `json:"name"`
	Token         string     `json:"token,omitempty"`
	Rails         []railInfo `json:"rails,omitempty"`
	ResurrectAddr string     `json:"resurrect_addr,omitempty"`
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

// railAck answers a rail handshake step on a TCP connection: a udp
// rail's confirmation, and every answer of the resurrection listener,
// whose Addr names a revived udp rail's fresh data socket.
type railAck struct {
	OK   bool   `json:"ok"`
	Addr string `json:"addr,omitempty"`
	Err  string `json:"err,omitempty"`
}

// Server accepts multi-rail sessions.
type Server struct {
	name  string
	eng   *core.Engine
	ctrl  net.Listener
	rails []railListener
	specs []RailSpec
	opts  Options
	// res is the rail resurrection listener (nil unless Options.Resurrect).
	res net.Listener

	mu     sync.Mutex
	closed bool
	// sessions registers accepted sessions by token for rail
	// resurrection (see resurrect.go); nil unless Options.Resurrect.
	sessions map[string]*sessionRec
}

// railListener is what the server keeps per rail between sessions: a
// TCP listener for a tcp rail, the local address each session's data
// socket binds for a udp rail, and nothing for an shm rail.
type railListener struct {
	tcp net.Listener
	udp *net.UDPAddr
}

// Listen starts a server for the given engine: a control listener on
// ctrlAddr plus one listener per tcp rail spec. ctx bounds the listener
// setup; opts.HandshakeTimeout governs each subsequent Accept.
func Listen(ctx context.Context, eng *core.Engine, name, ctrlAddr string, rails []RailSpec, opts Options) (*Server, error) {
	if len(rails) == 0 {
		return nil, fmt.Errorf("session: no rails offered")
	}
	var lc net.ListenConfig
	ctrl, err := lc.Listen(ctx, "tcp", ctrlAddr)
	if err != nil {
		return nil, fmt.Errorf("session: control listen: %w", err)
	}
	s := &Server{name: name, eng: eng, ctrl: ctrl, specs: rails, opts: opts}
	for i, spec := range rails {
		var rl railListener
		switch spec.Proto {
		case "", "tcp":
			rl.tcp, err = lc.Listen(ctx, "tcp", spec.Addr)
		case "udp":
			rl.udp, err = net.ResolveUDPAddr("udp", spec.Addr)
			if err == nil && rl.udp.Port != 0 {
				err = fmt.Errorf("udp rail address %s: each session binds a fresh data socket, so the port must be 0", spec.Addr)
			}
		case "shm":
			if !shmdrv.Supported() {
				err = fmt.Errorf("shm rails unsupported on this platform")
			}
		default:
			err = fmt.Errorf("unknown proto %q", spec.Proto)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("session: rail %d: %w", i, err)
		}
		s.rails = append(s.rails, rl)
	}
	if opts.Resurrect {
		host, _, err := net.SplitHostPort(ctrl.Addr().String())
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("session: resurrect listener: %w", err)
		}
		res, err := lc.Listen(ctx, "tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("session: resurrect listen: %w", err)
		}
		s.res = res
		go s.resurrectLoop()
	}
	return s, nil
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
	// Deadline first, guard second (the netx.AcceptConn order): armed the
	// other way round, a cancel poke firing in between would be
	// overwritten and the handshake would block to the full timeout.
	conn.SetDeadline(hsDeadline)
	stop := guardCtx(ctx, conn)
	defer stop()
	r := bufio.NewReader(conn)
	var cli hello
	if err := readJSON(r, &cli); err != nil {
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
	eps, infos, err := s.offerRails()
	if err != nil {
		return nil, "", err
	}
	srv := hello{Version: Version, Name: s.name, Token: token, Rails: infos}
	if s.res != nil {
		srv.ResurrectAddr = s.res.Addr().String()
	}
	if err := writeJSON(conn, srv); err != nil {
		closeAll(eps)
		return nil, "", fmt.Errorf("session: write server hello: %w", ctxErrOr(ctx, err))
	}
	for i, spec := range s.specs {
		pre := preamble{Token: token, Rail: i}
		switch spec.Proto {
		case "shm":
			// The client confirms its attach on the control channel.
			err = expectPreamble(r, pre)
		case "udp":
			eps[i].udpPeer, err = confirmUDPRail(ctx, eps[i].udp, conn, pre, hsDeadline)
		default:
			eps[i].tcp, err = acceptTCPRail(ctx, s.rails[i].tcp, pre, hsDeadline)
		}
		if err != nil {
			closeAll(eps)
			return nil, "", fmt.Errorf("session: rail %d handshake: %w", i, ctxErrOr(ctx, err))
		}
	}
	gate := s.eng.NewGate(cli.Name)
	rls := make([]*core.Rail, len(eps))
	for i, ep := range eps {
		rls[i] = gate.AddRail(ep.driver(s.specs[i].Profile))
	}
	if s.res != nil {
		s.mu.Lock()
		if s.sessions == nil {
			s.sessions = make(map[string]*sessionRec)
		}
		s.sessions[token] = &sessionRec{gate: gate, rails: rls, reviving: make([]bool, len(rls))}
		s.mu.Unlock()
	}
	return gate, cli.Name, nil
}

// offerRails opens one session's per-session rail endpoints — a fresh
// data socket per udp rail, a fresh segment (side 0) per shm rail — and
// describes every rail for the hello. A tcp rail's endpoint stays empty
// until its connection is accepted. On error nothing is left open.
func (s *Server) offerRails() ([]railEndpoint, []railInfo, error) {
	eps := make([]railEndpoint, len(s.specs))
	infos := make([]railInfo, len(s.specs))
	for i, spec := range s.specs {
		var addr string
		var err error
		prof := spec.Profile
		switch spec.Proto {
		case "udp":
			if eps[i].udp, err = net.ListenUDP("udp", s.rails[i].udp); err == nil {
				addr = eps[i].udp.LocalAddr().String()
			}
		case "shm":
			if eps[i].shm, err = shmdrv.Create(shmring.RandomName(), shmdrv.Options{Profile: prof}); err == nil {
				// The hello advertises the driver's effective profile, so a
				// zero spec profile crosses as shmdrv's defaults, not zeros.
				addr, prof = eps[i].shm.SegName(), eps[i].shm.Profile()
			}
		default:
			addr = s.rails[i].tcp.Addr().String()
		}
		if err != nil {
			closeAll(eps)
			return nil, nil, fmt.Errorf("session: rail %d offer: %w", i, err)
		}
		infos[i] = railInfo{
			Addr: addr, Proto: spec.Proto, Name: prof.Name,
			LatencyNS: prof.Latency.Nanoseconds(), BandwidthBS: prof.Bandwidth,
			EagerMax: prof.EagerMax, PIOMax: prof.PIOMax,
		}
	}
	return eps, infos, nil
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
func dialTCPRail(ctx context.Context, d *net.Dialer, addr string, pre preamble, deadline time.Time) (net.Conn, error) {
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

// guarded runs one handshake step on a rail socket under the handshake
// deadline and ctx's cancellation poke, then clears the deadline for
// the driver. A false guard stop means ctx was cancelled and its poke is
// running (or already ran): it could land after the clear and poison the
// rail, so the step fails with ctx's error — the handshake is void.
func guarded(ctx context.Context, c netx.Deadliner, deadline time.Time, step func() error) error {
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

// railEndpoint is one rail awaiting gate attachment: a TCP stream, a
// UDP socket aimed at a fixed peer, or an already-running
// shared-memory driver. The zero value is a tcp rail not yet accepted.
type railEndpoint struct {
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

// Close shuts every listener down.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.ctrl.Close()
	if s.res != nil {
		if e := s.res.Close(); err == nil {
			err = e
		}
	}
	for _, l := range s.rails {
		if l.tcp == nil {
			continue
		}
		if e := l.tcp.Close(); err == nil {
			err = e
		}
	}
	return err
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
	r := bufio.NewReader(conn)
	var srv hello
	if err := readJSON(r, &srv); err != nil {
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
		pre := preamble{Token: srv.Token, Rail: i}
		switch ri.Proto {
		case "", "tcp":
			eps[i].tcp, err = dialTCPRail(ctx, &dialer, ri.Addr, pre, hsDeadline)
		case "udp":
			eps[i].udp, eps[i].udpPeer, err = attachUDPRail(r, ri.Addr, pre)
		case "shm":
			eps[i].shm, err = attachShmRail(conn, ri, pre)
		default:
			err = fmt.Errorf("unknown proto %q", ri.Proto)
		}
		if err != nil {
			closeAll(eps)
			return nil, "", fmt.Errorf("session: rail %d %s: %w", i, ri.Addr, ctxErrOr(ctx, err))
		}
	}
	gate := eng.NewGate(srv.Name)
	rls := make([]*core.Rail, len(eps))
	for i, ep := range eps {
		rls[i] = gate.AddRail(ep.driver(srv.Rails[i].profile()))
	}
	if opts.Probe > 0 {
		startProber(gate, srv, rls, opts)
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
