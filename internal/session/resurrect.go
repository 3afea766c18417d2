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
// connection to the resurrection listener, and runs the rail's leg of
// the first bring-up (offer, attach, confirm; see session.go) with that
// coordination connection in the control connection's place. The
// exchange:
//
//	client                               server
//	  |-- preamble {token,rail} ---------->     look up session, verify
//	  |                                         the rail is down, offer a
//	  |                                         fresh endpoint on the
//	  |                                         rail's interface
//	  |<-- ack {ok,addr} ------------------     addr names the endpoint
//	  |-- attach to addr, preamble -------->    confirm: tcp on the fresh
//	  |                                         listener, udp as a datagram
//	  |<-- ack {ok} ------------------------    (udp only, as in udp.go)
//	  both ends attach; the coordination connection closes
//
// Shm rails are not resurrectable — the segment died with the peer, and
// a same-host peer that can re-attach can just reconnect.
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

// revivable reports whether a rail of proto can be resurrected: not an
// shm rail, whose segment died with it.
func revivable(proto string) bool { return proto != "shm" }

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
	defer conn.Close()
	deadline := s.opts.handshakeDeadline(context.Background())
	conn.SetDeadline(deadline)
	ctrl := ctrlConn{conn, bufio.NewReader(conn)}
	refuse := func(msg string) { writeJSON(conn, railAck{Err: msg}) }
	var pre preamble
	if err := readJSON(ctrl.r, &pre); err != nil {
		return
	}
	s.mu.Lock()
	rec := s.sessions[pre.Token]
	s.mu.Unlock()
	switch {
	case rec == nil:
		refuse("unknown session")
	case pre.Rail < 0 || pre.Rail >= len(s.specs):
		refuse("no such rail")
	case !revivable(s.specs[pre.Rail].Proto):
		refuse("shm rails are not resurrectable")
	case !rec.begin(pre.Rail):
		refuse("rail is up")
	default:
		rec.finish(pre.Rail, s.revive(ctrl, rec, pre, deadline))
	}
}

// revive runs the server's steps of rail pre.Rail's leg over ctrl:
// offer a fresh endpoint, name it in the ack, confirm. Returns the
// revived rail or nil.
func (s *Server) revive(ctrl ctrlConn, rec *sessionRec, pre preamble, deadline time.Time) *core.Rail {
	spec := s.specs[pre.Rail]
	ep, ri, err := offerRail(spec, ctrl.LocalAddr())
	if err != nil {
		writeJSON(ctrl, railAck{Err: err.Error()})
		return nil
	}
	err = writeJSON(ctrl, railAck{OK: true, Addr: ri.Addr})
	if err == nil {
		err = ep.confirm(context.Background(), ctrl, pre, deadline)
	}
	if err != nil {
		ep.close()
		return nil
	}
	return rec.gate.AddRail(ep.driver(spec.Profile))
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
			if !rails[i].Down() || !revivable(srv.Rails[i].Proto) {
				continue
			}
			if r := reviveRail(g, srv, i, opts.handshakeDeadline(context.Background())); r != nil {
				rails[i] = r
			}
		}
	}
}

// reviveRail attempts one revival of rail slot i against the server's
// resurrection listener: the client's step of the rail's leg, aimed at
// the endpoint the ack names. Any failure returns nil; the prober
// retries next tick.
func reviveRail(g *core.Gate, srv hello, i int, deadline time.Time) *core.Rail {
	ri := srv.Rails[i]
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", srv.ResurrectAddr)
	if err != nil {
		return nil
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	ctrl := ctrlConn{conn, bufio.NewReader(conn)}
	pre := preamble{Token: srv.Token, Rail: i}
	var ack railAck
	if err := writeJSON(conn, pre); err != nil || readJSON(ctrl.r, &ack) != nil || !ack.OK {
		return nil
	}
	ri.Addr = ack.Addr
	ep, err := attach(context.Background(), ctrl, ri, pre, deadline)
	if err != nil {
		return nil
	}
	return g.AddRail(ep.driver(ri.profile()))
}
