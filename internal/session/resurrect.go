// Rail resurrection. A session whose rail dies (cable pull, crashed
// proxy, transient routing loss) keeps running on its surviving rails —
// the engine fails the rail, strategies route around it. Resurrection
// closes the loop: the server advertises one extra TCP listener in its
// hello, and a client probe re-dials downed rails through it, so a rail
// that comes back is re-attached to both gates and the schedulers
// (hedging, adaptive stripping) fold it back in through its estimator's
// optimistic prior.
//
// Every revival — tcp and udp alike — is coordinated over one fresh TCP
// connection to the resurrection listener. The exchange:
//
//	client                               server
//	  |-- preamble {token,rail} ---------->     look up session, verify
//	  |                                         the rail is down
//	  |<-- ack {ok[,addr]} ----------------     tcp: this conn IS the rail
//	  |                                         udp: addr = fresh data socket
//	  |   (udp only: the leg of udp.go)
//	  |-- preamble datagram --> addr            learns client's data addr
//	  |<-- ack {ok} ------------------------    both ends attach
//
// A tcp rail reuses the coordination connection as the rail itself (the
// server attaches after writing its ack, the client after reading it —
// the ack is read unbuffered so engine frames right behind it survive).
// A udp rail runs the same datagram leg as its first bring-up, with the
// coordination connection in the control connection's place. Shm rails
// are not resurrectable — the segment died with the peer, and a
// same-host peer that can re-attach can just reconnect.
//
// The old rail object stays in the gate, down forever; AddRail appends
// a new one. Both ends must have observed the failure: a server whose
// side of the rail still looks up refuses revival (the client's probe
// just retries next tick, by which time the server's sends on the dead
// rail have failed it too).
package session

import (
	"bufio"
	"context"
	"net"
	"sync"
	"time"

	"newmad/internal/core"
)

// sessionRec is the server's per-session resurrection state: the gate
// and the current rail per spec slot (AddRail appends, so the gate's
// own slice accumulates corpses; this one tracks the live ones).
type sessionRec struct {
	gate *core.Gate

	mu       sync.Mutex
	rails    []*core.Rail
	reviving []bool // guards each slot against concurrent revivals
}

// begin claims rail slot i for revival: false if the rail is healthy or
// another revival is already in flight.
func (rec *sessionRec) begin(i int) bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if i < 0 || i >= len(rec.rails) || rec.reviving[i] || !rec.rails[i].Down() {
		return false
	}
	rec.reviving[i] = true
	return true
}

// finish releases slot i, installing the revived rail if any.
func (rec *sessionRec) finish(i int, r *core.Rail) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.reviving[i] = false
	if r != nil {
		rec.rails[i] = r
	}
}

// resurrectLoop accepts revival connections until the listener closes.
func (s *Server) resurrectLoop() {
	for {
		conn, err := s.res.Accept()
		if err != nil {
			return
		}
		go s.resurrectConn(conn)
	}
}

// resurrectConn serves one revival attempt. Refusals are answered (so
// the client can log why) and never disturb the session.
func (s *Server) resurrectConn(conn net.Conn) {
	deadline := s.opts.handshakeDeadline(context.Background())
	conn.SetDeadline(deadline)
	refuse := func(msg string) {
		writeJSON(conn, railAck{Err: msg})
		conn.Close()
	}
	var pre preamble
	if err := readJSON(unbuffered{conn}, &pre); err != nil {
		conn.Close()
		return
	}
	s.mu.Lock()
	rec := s.sessions[pre.Token]
	s.mu.Unlock()
	if rec == nil {
		refuse("unknown session")
		return
	}
	if pre.Rail < 0 || pre.Rail >= len(s.specs) {
		refuse("no such rail")
		return
	}
	spec := s.specs[pre.Rail]
	if spec.Proto == "shm" {
		refuse("shm rails are not resurrectable")
		return
	}
	if !rec.begin(pre.Rail) {
		refuse("rail is up")
		return
	}
	if spec.Proto == "udp" {
		rec.finish(pre.Rail, s.resurrectUDP(conn, rec, pre, deadline))
		return
	}
	// TCP: the coordination connection becomes the rail. Attach after the
	// ack so the driver's writer never races the handshake bytes.
	if err := writeJSON(conn, railAck{OK: true}); err != nil {
		conn.Close()
		rec.finish(pre.Rail, nil)
		return
	}
	conn.SetDeadline(time.Time{})
	rec.finish(pre.Rail, rec.gate.AddRail(railEndpoint{tcp: conn}.driver(spec.Profile)))
}

// resurrectUDP serves a udp rail revival: open a fresh data socket,
// name it in the ack, and run the server half of udp.go's leg over the
// coordination connection. Returns the revived rail or nil.
func (s *Server) resurrectUDP(conn net.Conn, rec *sessionRec, pre preamble, deadline time.Time) *core.Rail {
	defer conn.Close()
	s1, err := net.ListenUDP("udp", s.rails[pre.Rail].udp)
	if err != nil {
		writeJSON(conn, railAck{Err: err.Error()})
		return nil
	}
	err = writeJSON(conn, railAck{OK: true, Addr: s1.LocalAddr().String()})
	var peer *net.UDPAddr
	if err == nil {
		peer, err = confirmUDPRail(context.Background(), s1, conn, pre, deadline)
	}
	if err != nil {
		s1.Close()
		return nil
	}
	return rec.gate.AddRail(railEndpoint{udp: s1, udpPeer: peer}.driver(s.specs[pre.Rail].Profile))
}

// prober is one client-side resurrection loop.
type prober struct {
	stop chan struct{}
	done chan struct{}
}

// probers maps gates to their running probers (see StopProbe).
var probers sync.Map

// startProber launches the revival loop for a freshly connected gate.
func startProber(g *core.Gate, srv hello, rails []*core.Rail, opts Options) {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{})}
	probers.Store(g, p)
	go p.run(g, srv, rails, opts)
}

// StopProbe stops the resurrection prober attached to gate (a no-op if
// none is). It returns once the prober goroutine has exited, so it is
// safe to close the engine afterwards.
func StopProbe(g *core.Gate) {
	v, ok := probers.LoadAndDelete(g)
	if !ok {
		return
	}
	p := v.(*prober)
	close(p.stop)
	<-p.done
}

func (p *prober) run(g *core.Gate, srv hello, rails []*core.Rail, opts Options) {
	defer close(p.done)
	t := time.NewTicker(opts.Probe)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		for i := range rails {
			select {
			case <-p.stop:
				return
			default:
			}
			if !rails[i].Down() {
				continue
			}
			if r := reviveRail(g, srv, i, opts.handshakeDeadline(context.Background())); r != nil {
				rails[i] = r
			}
		}
	}
}

// reviveRail attempts one revival of rail slot i against the server's
// resurrection listener. Any failure returns nil; the prober retries
// next tick.
func reviveRail(g *core.Gate, srv hello, i int, deadline time.Time) *core.Rail {
	ri := srv.Rails[i]
	switch ri.Proto {
	case "", "tcp", "udp":
	default:
		return nil // shm: the segment died with the rail
	}
	if srv.ResurrectAddr == "" {
		return nil // server does not offer resurrection
	}
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", srv.ResurrectAddr)
	if err != nil {
		return nil
	}
	conn.SetDeadline(deadline)
	pre := preamble{Token: srv.Token, Rail: i}
	// The ack is read unbuffered: on a tcp revival the server's engine
	// frames may already be queued right behind it on this very
	// connection.
	var ack railAck
	err = writeJSON(conn, pre)
	if err == nil {
		err = readJSON(unbuffered{conn}, &ack)
	}
	if err != nil || !ack.OK {
		conn.Close()
		return nil
	}
	if ri.Proto == "udp" {
		defer conn.Close()
		uc, peer, err := attachUDPRail(bufio.NewReader(conn), ack.Addr, pre)
		if err != nil {
			return nil
		}
		return g.AddRail(railEndpoint{udp: uc, udpPeer: peer}.driver(ri.profile()))
	}
	conn.SetDeadline(time.Time{})
	return g.AddRail(railEndpoint{tcp: conn}.driver(ri.profile()))
}
