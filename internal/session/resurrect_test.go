package session

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"newmad/internal/core"
)

// resurrectPair brings up one session with resurrection enabled on the
// server and a fast probe on the client, returning both gates.
func resurrectPair(t *testing.T, specs []RailSpec) (srv *Server, srvGate, cliGate *core.Gate, engSrv, engCli *core.Engine) {
	t.Helper()
	engSrv, engCli = engines(t)
	srv, err := Listen(context.Background(), engSrv, "alpha", "127.0.0.1:0", specs, Options{Resurrect: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	type acceptResult struct {
		gate *core.Gate
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		g, _, err := srv.Accept(context.Background())
		accepted <- acceptResult{g, err}
	}()
	cliGate, _, err = Connect(context.Background(), engCli, "beta", srv.ControlAddr(), Options{Probe: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { StopProbe(cliGate) })
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	return srv, res.gate, cliGate, engSrv, engCli
}

// waitUpRails polls until the gate has want healthy rails.
func waitUpRails(t *testing.T, g *core.Gate, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.UpRails() != want {
		if !time.Now().Before(deadline) {
			t.Fatalf("UpRails = %d, want %d after 10s", g.UpRails(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// exchange moves a striped payload client→server and verifies it.
func verifyExchange(t *testing.T, from, to *core.Gate, engFrom, engTo *core.Engine, tag uint32, n int) {
	t.Helper()
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*31 + int(tag))
	}
	recv := make([]byte, n)
	done := make(chan error, 1)
	go func() {
		rr := to.Irecv(tag, recv)
		done <- engTo.Wait(rr)
	}()
	sr := from.Isend(tag, msg)
	if err := engFrom.Wait(sr); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch")
	}
}

// TestResurrectTCPRail: a downed tcp rail is revived by the client's
// probe through the server's resurrection listener, and the session
// goes back to full width. The revived rail binds its spec's interface
// like the first bring-up did, whichever host the control connection
// uses.
func TestResurrectTCPRail(t *testing.T) {
	cases := []struct {
		name, host string
	}{
		{"control host", "127.0.0.1"},
		{"own interface", "127.0.0.2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			specs := twoRails()
			specs[0].Addr = net.JoinHostPort(c.host, "0")
			if l, err := net.Listen("tcp", specs[0].Addr); err != nil {
				t.Skipf("cannot bind %s: %v", c.host, err)
			} else {
				l.Close()
			}
			resurrectTCP(t, specs, c.host)
		})
	}
}

func resurrectTCP(t *testing.T, specs []RailSpec, host string) {
	_, srvGate, cliGate, engSrv, engCli := resurrectPair(t, specs)
	verifyExchange(t, cliGate, srvGate, engCli, engSrv, 1, 1<<20)

	// The rail dies; both ends observe the failure.
	srvGate.Rails()[0].MarkDown()
	cliGate.Rails()[0].MarkDown()
	waitUpRails(t, cliGate, 1)

	// The probe revives it: a new rail appears on both gates.
	waitUpRails(t, cliGate, 2)
	waitUpRails(t, srvGate, 2)
	if len(cliGate.Rails()) != 3 {
		t.Fatalf("client rails = %d, want 3 (old corpse + revival)", len(cliGate.Rails()))
	}
	if name := cliGate.Rails()[2].Driver().Name(); !strings.Contains(name, host+":") {
		t.Fatalf("revived rail %q does not name its spec's host %s", name, host)
	}

	// Traffic flows across the revived width, including the new rail.
	verifyExchange(t, cliGate, srvGate, engCli, engSrv, 2, 1<<20)
	p, _ := cliGate.Rails()[2].Stats()
	if p == 0 {
		t.Fatal("revived rail carried no packets")
	}
}

// TestResurrectUDPRail: same as above for a udp rail, whose revival
// needs the extra datagram leg to learn both fresh data addresses.
func TestResurrectUDPRail(t *testing.T) {
	specs := twoRails()
	specs[1].Proto = "udp"
	_, srvGate, cliGate, engSrv, engCli := resurrectPair(t, specs)
	verifyExchange(t, cliGate, srvGate, engCli, engSrv, 1, 1<<20)

	srvGate.Rails()[1].MarkDown()
	cliGate.Rails()[1].MarkDown()
	waitUpRails(t, cliGate, 1)

	waitUpRails(t, cliGate, 2)
	waitUpRails(t, srvGate, 2)

	verifyExchange(t, cliGate, srvGate, engCli, engSrv, 2, 1<<20)
	p, _ := cliGate.Rails()[2].Stats()
	if p == 0 {
		t.Fatal("revived udp rail carried no packets")
	}
}

// TestResurrectRefusals: the resurrection listener answers garbage with
// a refusal and never touches live sessions.
func TestResurrectRefusals(t *testing.T) {
	srv, srvGate, cliGate, engSrv, engCli := resurrectPair(t, twoRails())
	// Dial the resurrect listener directly with a bogus token.
	conn, err := net.Dial("tcp", srv.res.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSON(conn, preamble{Token: "nonsense", Rail: 0}); err != nil {
		t.Fatal(err)
	}
	var ack railAck
	if err := readJSON(unbuffered{conn}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK || ack.Err == "" {
		t.Fatalf("bogus token accepted: %+v", ack)
	}
	// The live session is untouched.
	verifyExchange(t, cliGate, srvGate, engCli, engSrv, 3, 4096)
}
