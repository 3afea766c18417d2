package session

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"newmad/internal/core"
)

// mixedRails offers a TCP rail and a UDP rail — the heterogeneous pair
// the split strategies are built for.
func mixedRails() []RailSpec {
	return []RailSpec{
		{Addr: "127.0.0.1:0", Profile: core.Profile{Name: "tcp-fast", Bandwidth: 800e6, EagerMax: 32 << 10, Latency: 20 * time.Microsecond}},
		{Addr: "127.0.0.1:0", Proto: "udp", Profile: core.Profile{Name: "udp-lossy", Bandwidth: 400e6, EagerMax: 32 << 10, PIOMax: 8 << 10, Latency: 40 * time.Microsecond}},
	}
}

// bringUp establishes one session over the given rails and returns both
// gates (server side first).
func bringUp(t *testing.T, engA, engB *core.Engine, rails []RailSpec) (*core.Gate, *core.Gate) {
	t.Helper()
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", rails, Options{})
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
	gateBA, _, err := Connect(context.Background(), engB, "beta", srv.ControlAddr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	return res.gate, gateBA
}

// exchange moves msg from the sender gate to the receiver gate and
// byte-verifies it.
func exchange(t *testing.T, sendEng, recvEng *core.Engine, sendGate, recvGate *core.Gate, tag uint32, msg []byte) {
	t.Helper()
	recv := make([]byte, len(msg))
	done := make(chan error, 1)
	go func() {
		rr := recvGate.Irecv(tag, recv)
		done <- recvEng.Wait(rr)
	}()
	sr := sendGate.Isend(tag, msg)
	if err := sendEng.Wait(sr); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload corrupted in transit")
	}
}

// TestSessionHeterogeneousSplit is the acceptance transfer: a session
// over one TCP rail and one UDP rail moves a striped megabyte each way,
// byte-verified, with both rails carrying chunks.
func TestSessionHeterogeneousSplit(t *testing.T) {
	engA, engB := engines(t)
	gateAB, gateBA := bringUp(t, engA, engB, mixedRails())
	if len(gateAB.Rails()) != 2 || len(gateBA.Rails()) != 2 {
		t.Fatalf("rails: %d / %d", len(gateAB.Rails()), len(gateBA.Rails()))
	}
	// The udp rail's profile crossed the control channel.
	if got := gateBA.Rails()[1].Profile().Name; got != "udp-lossy" {
		t.Fatalf("udp rail profile: %q", got)
	}
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i * 131)
	}
	exchange(t, engA, engB, gateAB, gateBA, 1, msg)
	exchange(t, engB, engA, gateBA, gateAB, 2, msg)
	// Split strategy, 1 MB body: both the stream rail and the datagram
	// rail must have carried data.
	for _, g := range []*core.Gate{gateAB, gateBA} {
		p0, _ := g.Rails()[0].Stats()
		p1, _ := g.Rails()[1].Stats()
		if p0 == 0 || p1 == 0 {
			t.Fatalf("stripping unused a rail: tcp=%d udp=%d", p0, p1)
		}
	}
}

// TestSessionUDPOnly brings a session up over a single UDP rail: the
// whole data path rides relnet over real datagram sockets.
func TestSessionUDPOnly(t *testing.T) {
	engA, engB := engines(t)
	rails := []RailSpec{{Addr: "127.0.0.1:0", Proto: "udp"}}
	gateAB, gateBA := bringUp(t, engA, engB, rails)
	msg := make([]byte, 256<<10)
	for i := range msg {
		msg[i] = byte(i * 17)
	}
	exchange(t, engA, engB, gateAB, gateBA, 3, msg)
}

// TestSessionUDPStraysSkipped throws garbage, forged-token and
// wrong-rail datagrams at the per-session data socket named in the hello
// ahead of the real preamble: an open UDP port receives strays, and none
// of them may abort a live negotiation or capture the rail.
func TestSessionUDPStraysSkipped(t *testing.T) {
	engA, engB := engines(t)
	rails := []RailSpec{{Addr: "127.0.0.1:0", Proto: "udp"}}
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", rails, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	type acceptResult struct {
		gate *core.Gate
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		g, _, err := srv.Accept(context.Background())
		accepted <- acceptResult{g, err}
	}()
	// Manual client: the hello on the control connection...
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSON(conn, hello{Version: Version, Name: "beta"}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var srvHello hello
	if err := readJSON(r, &srvHello); err != nil {
		t.Fatal(err)
	}
	// ...strays at the data socket from another sender...
	dataAddr := srvHello.Rails[0].Addr
	stray, err := net.Dial("udp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	stray.Write([]byte("not even json"))
	forged, _ := json.Marshal(preamble{Token: "forged", Rail: 0})
	stray.Write(forged)
	wrongRail, _ := json.Marshal(preamble{Token: srvHello.Token, Rail: 7})
	stray.Write(wrongRail)
	// ...then the real leg.
	uc, peer, err := attachUDPRail(r, dataAddr, preamble{Token: srvHello.Token, Rail: 0})
	if err != nil {
		t.Fatal(err)
	}
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	// The server aimed its rail at the real client, not at the stray
	// sender: a payload crosses the rail intact.
	gateBA := engB.NewGate("alpha")
	gateBA.AddRail(railEndpoint{udp: uc, udpPeer: peer}.driver(core.Profile{}))
	exchange(t, engA, engB, res.gate, gateBA, 4, bytes.Repeat([]byte("stray"), 1000))
}

// TestSessionConcurrentUDPSessions runs four handshakes at once on one
// server, for several rail sets. Each session gets its own per-session
// endpoints — tcp listeners, udp data sockets, shm segments — so no
// handshake sees another's rail connections or preambles, and each gate
// pair carries its own byte-verified exchange.
func TestSessionConcurrentUDPSessions(t *testing.T) {
	udp := RailSpec{Addr: "127.0.0.1:0", Proto: "udp"}
	tcp := RailSpec{Addr: "127.0.0.1:0"}
	cases := []struct {
		name  string
		rails []RailSpec
		shm   bool
	}{
		{"udp+udp", []RailSpec{udp, udp}, false},
		{"tcp+udp", []RailSpec{tcp, udp}, false},
		{"tcp+udp+shm", []RailSpec{tcp, udp, {Proto: "shm"}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.shm {
				skipWithoutShm(t)
			}
			concurrentSessions(t, c.rails)
		})
	}
}

func concurrentSessions(t *testing.T, rails []RailSpec) {
	const sessions = 4
	engA, engB := engines(t)
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", rails, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	type result struct {
		gate *core.Gate
		peer string
		err  error
	}
	accepted := make(chan result, sessions)
	connected := make(chan result, sessions)
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("client-%d", i)
		go func() {
			g, peer, err := srv.Accept(context.Background())
			accepted <- result{g, peer, err}
		}()
		go func() {
			g, _, err := Connect(context.Background(), engB, name, srv.ControlAddr(), Options{})
			connected <- result{g, name, err}
		}()
	}
	srvGates := make(map[string]*core.Gate)
	cliGates := make(map[string]*core.Gate)
	for i := 0; i < sessions; i++ {
		for _, c := range []chan result{accepted, connected} {
			res := <-c
			if res.err != nil {
				t.Fatal(res.err)
			}
			if c == accepted {
				srvGates[res.peer] = res.gate
			} else {
				cliGates[res.peer] = res.gate
			}
		}
	}
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("client-%d", i)
		msg := bytes.Repeat([]byte{byte(i + 1)}, 64<<10)
		exchange(t, engB, engA, cliGates[name], srvGates[name], 7, msg)
		exchange(t, engA, engB, srvGates[name], cliGates[name], 8, msg)
	}
}

// TestSessionAdvertisesRoutableAddrs: rails bound to the wildcard
// address are advertised under the control connection's local IP, the
// address the client already reached this server by, so a client on
// another host can dial them.
func TestSessionAdvertisesRoutableAddrs(t *testing.T) {
	engA, engB := engines(t)
	rails := []RailSpec{{Addr: "0.0.0.0:0"}, {Addr: "0.0.0.0:0", Proto: "udp"}}
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", rails, Options{HandshakeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	type acceptResult struct {
		gate *core.Gate
		err  error
	}
	accepted := make(chan acceptResult, 1)
	accept := func() {
		g, _, err := srv.Accept(context.Background())
		accepted <- acceptResult{g, err}
	}
	go accept()
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(conn, hello{Version: Version, Name: "peek"}); err != nil {
		t.Fatal(err)
	}
	var srvHello hello
	err = readJSON(bufio.NewReader(conn), &srvHello)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res := <-accepted; res.err == nil {
		t.Fatal("Accept succeeded after the client hung up")
	}
	if len(srvHello.Rails) != len(rails) {
		t.Fatalf("hello offers %d rails, want %d", len(srvHello.Rails), len(rails))
	}
	for _, ri := range srvHello.Rails {
		host, _, err := net.SplitHostPort(ri.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if host != "127.0.0.1" {
			t.Fatalf("advertised %s, want host 127.0.0.1 (hello: %+v)", ri.Addr, srvHello)
		}
	}
	go accept()
	gateBA, _, err := Connect(context.Background(), engB, "beta", srv.ControlAddr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	exchange(t, engB, engA, gateBA, res.gate, 9, bytes.Repeat([]byte("routable"), 4096))
}

// TestListenRejectsUnknownProto pins the spec validation, including tcp
// and udp rails with a fixed port: each session binds a fresh listener
// or data socket, so the port would be silently ignored.
func TestListenRejectsUnknownProto(t *testing.T) {
	engA, _ := engines(t)
	for _, spec := range []RailSpec{{Addr: "127.0.0.1:0", Proto: "sctp"}, {Addr: "127.0.0.1:7001", Proto: "udp"}, {Addr: "127.0.0.1:7001"}} {
		if _, err := Listen(context.Background(), engA, "a", "127.0.0.1:0", []RailSpec{spec}, Options{}); err == nil {
			t.Fatalf("bad spec accepted: %+v", spec)
		}
	}
}
