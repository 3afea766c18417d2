// Package session bootstraps real multi-rail connections between two
// engine processes: one control TCP connection negotiates the session
// (library version, peer names, rail addresses, protocols and
// profiles), then each rail is dialed, authenticated with a preamble
// token, and attached to a gate in a deterministic order. It replaces
// the hand-wiring of listeners and dials that cmd/nmad-pingpong does
// manually. Rails are TCP streams by default; a RailSpec with Proto
// "udp" brings the rail up over datagram sockets under the relnet
// reliability layer (see udp.go for the handshake), Proto "shm" brings
// it up over a shared-memory segment for same-host peers (see shm.go),
// and a gate may mix all three kinds — heterogeneous rails are the
// point of the multi-rail design.
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
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/drivers/tcpdrv"
	"newmad/internal/drivers/udpdrv"
	"newmad/internal/netx"
)

// Version is the wire protocol version; both ends must match. Bumped
// to 2 when the engine gained the KRecvAbort control packet: a version-1
// peer would fail a healthy rail on the unknown kind. Bumped to 3 when
// rails gained a proto field: a version-2 peer would dial a udp rail's
// address with TCP and hang on a connect nothing accepts. Bumped to 4
// when rails gained the shm proto: an shm rail's Addr is a /dev/shm
// segment name, not a socket address, and the rail is confirmed by a
// preamble on the control channel — a version-3 peer would try to dial
// the segment name as a hostname.
const Version = 4

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
	// ephemeral).
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
	// acked registers completed UDP rail handshakes for re-acking dup
	// preambles (see udp.go).
	acked map[string]*udpAckRec
	// sessions registers accepted sessions by token for rail
	// resurrection (see resurrect.go); nil unless Options.Resurrect.
	sessions map[string]*sessionRec
}

// railListener is one advertised rail endpoint: a TCP listener or a UDP
// preamble socket, per the spec's proto. An shm rail has no OS listener
// at all (the zero railListener) — its per-session segment is created
// inside Accept and named in the hello.
type railListener struct {
	tcp net.Listener
	udp *net.UDPConn
}

func (rl railListener) addr() string {
	if rl.udp != nil {
		return rl.udp.LocalAddr().String()
	}
	if rl.tcp != nil {
		return rl.tcp.Addr().String()
	}
	return "" // shm: the hello carries the segment name instead
}

func (rl railListener) close() error {
	if rl.udp != nil {
		return rl.udp.Close()
	}
	if rl.tcp != nil {
		return rl.tcp.Close()
	}
	return nil
}

// Listen starts a server for the given engine: a control listener on
// ctrlAddr plus one listener per rail spec. ctx bounds the listener
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
		switch spec.Proto {
		case "", "tcp":
			l, err := lc.Listen(ctx, "tcp", spec.Addr)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("session: rail %d listen %s: %w", i, spec.Addr, err)
			}
			s.rails = append(s.rails, railListener{tcp: l})
		case "udp":
			pc, err := lc.ListenPacket(ctx, "udp", spec.Addr)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("session: rail %d listen %s: %w", i, spec.Addr, err)
			}
			s.rails = append(s.rails, railListener{udp: pc.(*net.UDPConn)})
		case "shm":
			if !shmdrv.Supported() {
				s.Close()
				return nil, fmt.Errorf("session: rail %d: shm rails unsupported on this platform", i)
			}
			s.rails = append(s.rails, railListener{})
		default:
			s.Close()
			return nil, fmt.Errorf("session: rail %d: unknown proto %q", i, spec.Proto)
		}
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
	// Shared-memory rails have no listener to accept on: each session
	// gets a fresh segment, created here so its name can ride in the
	// hello's Addr field. Ownership moves to eps as each rail is
	// confirmed; anything left in shmPre on a failure path is closed.
	shmPre, err := s.createShmRails()
	if err != nil {
		return nil, "", err
	}
	srv := hello{Version: Version, Name: s.name, Token: token}
	if s.res != nil {
		srv.ResurrectAddr = s.res.Addr().String()
	}
	for i, spec := range s.specs {
		prof := spec.Profile
		addr := s.rails[i].addr()
		if d, ok := shmPre[i]; ok {
			// The hello advertises the driver's effective profile, so a
			// zero spec profile crosses as shmdrv's defaults, not zeros.
			addr, prof = d.SegName(), d.Profile()
		}
		srv.Rails = append(srv.Rails, railInfo{
			Addr: addr, Proto: spec.Proto, Name: prof.Name,
			LatencyNS: prof.Latency.Nanoseconds(), BandwidthBS: prof.Bandwidth,
			EagerMax: prof.EagerMax, PIOMax: prof.PIOMax,
		})
	}
	if err := writeJSON(conn, srv); err != nil {
		closeShmRails(shmPre)
		return nil, "", fmt.Errorf("session: write server hello: %w", err)
	}
	// Bring every rail connection up and authenticate it before touching
	// the engine: a mid-handshake failure or ctx cancellation must not
	// leave a half-railed gate registered (the engine has no gate
	// removal), so the gate is created only once the whole handshake has
	// succeeded and every failure path closes the accumulated endpoints.
	eps := make([]railEndpoint, 0, len(s.specs))
	closeEps := func() {
		for _, e := range eps {
			e.close()
		}
		closeShmRails(shmPre)
	}
	for i, spec := range s.specs {
		if spec.Proto == "shm" {
			// The client confirms its attach with a preamble on the
			// control channel — reading it here both orders the handshake
			// (the client acks rails in spec order) and authenticates the
			// attach with the session token.
			if err := s.confirmShmRail(r, token, i); err != nil {
				closeEps()
				return nil, "", fmt.Errorf("session: rail %d shm confirm: %w", i, ctxErrOr(ctx, err))
			}
			eps = append(eps, railEndpoint{shm: shmPre[i]})
			delete(shmPre, i)
			continue
		}
		if spec.Proto == "udp" {
			s1, client, err := s.acceptUDPRail(ctx, i, token, hsDeadline)
			if err != nil {
				closeEps()
				return nil, "", fmt.Errorf("session: rail %d udp handshake: %w", i, err)
			}
			eps = append(eps, railEndpoint{udp: s1, udpPeer: client})
			continue
		}
		rc, err := acceptConn(ctx, s.rails[i].tcp, hsDeadline)
		if err != nil {
			closeEps()
			return nil, "", fmt.Errorf("session: accept rail %d: %w", i, err)
		}
		rc.SetDeadline(hsDeadline)
		railStop := guardCtx(ctx, rc)
		var pre preamble
		// The preamble must be read without buffering ahead: engine
		// frames may already be queued behind it on this connection,
		// and a buffered reader would swallow them before the driver
		// takes over the socket.
		if err := readJSONUnbuffered(rc, &pre); err != nil {
			railStop()
			rc.Close()
			closeEps()
			return nil, "", fmt.Errorf("session: rail %d preamble: %w", i, ctxErrOr(ctx, err))
		}
		if pre.Token != token || pre.Rail != i {
			railStop()
			rc.Close()
			closeEps()
			return nil, "", fmt.Errorf("session: rail %d bad preamble (rail %d)", i, pre.Rail)
		}
		// A false return means ctx was cancelled and its deadline poke is
		// running (or already ran): it could land after the clear below
		// and poison the rail for the driver. The handshake is void
		// anyway — abort with ctx's error.
		if !railStop() {
			rc.Close()
			closeEps()
			return nil, "", fmt.Errorf("session: rail %d: %w", i, ctx.Err())
		}
		rc.SetDeadline(time.Time{})
		eps = append(eps, railEndpoint{tcp: rc})
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

// railEndpoint is one authenticated rail connection awaiting gate
// attachment: a TCP stream, a UDP socket aimed at a fixed peer, or an
// already-running shared-memory driver.
type railEndpoint struct {
	tcp     net.Conn
	udp     *net.UDPConn
	udpPeer *net.UDPAddr
	shm     *shmdrv.Driver
}

func (e railEndpoint) close() {
	if e.shm != nil {
		e.shm.Close()
		return
	}
	if e.udp != nil {
		e.udp.Close()
		return
	}
	e.tcp.Close()
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
		if e := l.close(); err == nil {
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
	var srv hello
	if err := readJSON(bufio.NewReader(conn), &srv); err != nil {
		return nil, "", fmt.Errorf("session: read server hello: %w", ctxErrOr(ctx, err))
	}
	if srv.Version != Version {
		return nil, "", fmt.Errorf("session: version mismatch: server %d, client %d", srv.Version, Version)
	}
	if len(srv.Rails) == 0 {
		return nil, "", fmt.Errorf("session: server offered no rails")
	}
	// As in Accept: dial and authenticate every rail before creating the
	// gate, so a failure mid-bring-up leaks neither conns nor a
	// half-railed engine gate.
	eps := make([]railEndpoint, 0, len(srv.Rails))
	closeEps := func() {
		for _, e := range eps {
			e.close()
		}
	}
	for i, ri := range srv.Rails {
		switch ri.Proto {
		case "", "tcp":
		case "udp":
			uc, peer, err := dialUDPRail(ctx, ri.Addr, srv.Token, i, hsDeadline)
			if err != nil {
				closeEps()
				return nil, "", fmt.Errorf("session: rail %d udp handshake %s: %w", i, ri.Addr, err)
			}
			eps = append(eps, railEndpoint{udp: uc, udpPeer: peer})
			continue
		case "shm":
			d, err := attachShmRail(conn, ri, srv.Token, i)
			if err != nil {
				closeEps()
				return nil, "", fmt.Errorf("session: rail %d shm attach %s: %w", i, ri.Addr, ctxErrOr(ctx, err))
			}
			eps = append(eps, railEndpoint{shm: d})
			continue
		default:
			closeEps()
			return nil, "", fmt.Errorf("session: rail %d: unknown proto %q", i, ri.Proto)
		}
		rc, err := dialer.DialContext(ctx, "tcp", ri.Addr)
		if err != nil {
			closeEps()
			return nil, "", fmt.Errorf("session: dial rail %d %s: %w", i, ri.Addr, ctxErrOr(ctx, err))
		}
		rc.SetDeadline(hsDeadline)
		railStop := guardCtx(ctx, rc)
		if err := writeJSON(rc, preamble{Token: srv.Token, Rail: i}); err != nil {
			railStop()
			rc.Close()
			closeEps()
			return nil, "", fmt.Errorf("session: rail %d preamble: %w", i, ctxErrOr(ctx, err))
		}
		// As in Accept: a false return means the cancel poke is in
		// flight and could poison the cleared deadline under the driver.
		if !railStop() {
			rc.Close()
			closeEps()
			return nil, "", fmt.Errorf("session: rail %d: %w", i, ctx.Err())
		}
		rc.SetDeadline(time.Time{})
		eps = append(eps, railEndpoint{tcp: rc})
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

func writeJSON(w net.Conn, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

func readJSON(r *bufio.Reader, v any) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// readJSONUnbuffered reads one newline-terminated JSON value a byte at a
// time, consuming nothing past the newline. Used where the connection is
// subsequently handed to a driver and over-reading would lose frames.
func readJSONUnbuffered(c net.Conn, v any) error {
	var line []byte
	var b [1]byte
	for {
		if _, err := c.Read(b[:]); err != nil {
			return err
		}
		if b[0] == '\n' {
			break
		}
		line = append(line, b[0])
		if len(line) > 4096 {
			return fmt.Errorf("session: preamble too long")
		}
	}
	return json.Unmarshal(line, v)
}

// jsonMarshal is a seam for tests building raw protocol bytes.
func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }
