package session

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/shmdrv"
	"newmad/internal/shmring"
	"newmad/internal/strategy"
)

func engines(t *testing.T) (*core.Engine, *core.Engine) {
	t.Helper()
	a := core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)})
	b := core.New(core.Config{Strategy: strategy.NewSplit(strategy.SplitRatio)})
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func twoRails() []RailSpec {
	return []RailSpec{
		{Addr: "127.0.0.1:0", Profile: core.Profile{Name: "fast", Bandwidth: 800e6, EagerMax: 32 << 10, Latency: 20 * time.Microsecond}},
		{Addr: "127.0.0.1:0", Profile: core.Profile{Name: "slow", Bandwidth: 200e6, EagerMax: 32 << 10, Latency: 40 * time.Microsecond}},
	}
}

func TestSessionBringup(t *testing.T) {
	engA, engB := engines(t)
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", twoRails(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type acceptResult struct {
		gate *core.Gate
		peer string
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		g, p, err := srv.Accept(context.Background())
		accepted <- acceptResult{g, p, err}
	}()
	gateBA, srvName, err := Connect(context.Background(), engB, "beta", srv.ControlAddr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	if srvName != "alpha" || res.peer != "beta" {
		t.Fatalf("names: server=%q peer=%q", srvName, res.peer)
	}
	gateAB := res.gate
	if len(gateAB.Rails()) != 2 || len(gateBA.Rails()) != 2 {
		t.Fatalf("rails: %d / %d", len(gateAB.Rails()), len(gateBA.Rails()))
	}
	// Profiles negotiated over the control channel.
	if gateBA.Rails()[0].Profile().Name != "fast" || gateBA.Rails()[1].Profile().Name != "slow" {
		t.Fatalf("client profiles: %+v %+v", gateBA.Rails()[0].Profile(), gateBA.Rails()[1].Profile())
	}
	if gateBA.Rails()[0].Profile().Bandwidth != 800e6 {
		t.Fatalf("bandwidth not negotiated: %v", gateBA.Rails()[0].Profile().Bandwidth)
	}

	// Move a striped payload both ways.
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	recv := make([]byte, len(msg))
	done := make(chan error, 1)
	go func() {
		rr := gateBA.Irecv(1, recv)
		done <- engB.Wait(rr)
	}()
	sr := gateAB.Isend(1, msg)
	if err := engA.Wait(sr); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv, msg) {
		t.Fatal("payload mismatch through session rails")
	}
	// Both negotiated rails carried data (split strategy, 1 MB body).
	p0, _ := gateAB.Rails()[0].Stats()
	p1, _ := gateAB.Rails()[1].Stats()
	if p0 == 0 || p1 == 0 {
		t.Fatalf("stripping unused: %d / %d", p0, p1)
	}
}

func TestSessionVersionMismatch(t *testing.T) {
	engA, _ := engines(t)
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", twoRails(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errs := make(chan error, 1)
	go func() {
		_, _, err := srv.Accept(context.Background())
		errs <- err
	}()
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSON(conn, hello{Version: 99, Name: "bad"}); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestSessionBadRailToken(t *testing.T) {
	engA, engB := engines(t)
	_ = engB
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", twoRails()[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errs := make(chan error, 1)
	go func() {
		_, _, err := srv.Accept(context.Background())
		errs <- err
	}()
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSON(conn, hello{Version: Version, Name: "evil"}); err != nil {
		t.Fatal(err)
	}
	var srvHello hello
	if err := readJSONConn(conn, &srvHello); err != nil {
		t.Fatal(err)
	}
	rc, err := net.Dial("tcp", srvHello.Rails[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := writeJSON(rc, preamble{Token: "wrong", Rail: 0}); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err == nil {
		t.Fatal("bad token accepted")
	}
}

func TestListenRequiresRails(t *testing.T) {
	engA, _ := engines(t)
	if _, err := Listen(context.Background(), engA, "a", "127.0.0.1:0", nil, Options{}); err == nil {
		t.Fatal("no rails accepted")
	}
}

func TestConnectRefused(t *testing.T) {
	_, engB := engines(t)
	if _, _, err := Connect(context.Background(), engB, "b", "127.0.0.1:1", Options{}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func readJSONConn(c net.Conn, v any) error {
	return readJSON(bufio.NewReader(c), v)
}

// Regression: engine frames queued immediately behind the rail preamble
// (one TCP segment) must reach the driver — the preamble read must not
// buffer ahead.
func TestFramesBehindPreambleSurvive(t *testing.T) {
	engA, engB := engines(t)
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", twoRails()[:1], Options{})
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
	// Manual client: hello on the control conn...
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSON(conn, hello{Version: Version, Name: "manual"}); err != nil {
		t.Fatal(err)
	}
	var srvHello hello
	if err := readJSONConn(conn, &srvHello); err != nil {
		t.Fatal(err)
	}
	// ...then preamble AND an engine frame in one write on the rail.
	rc, err := net.Dial("tcp", srvHello.Rails[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	pre, _ := jsonLine(preamble{Token: srvHello.Token, Rail: 0})
	payload := []byte("hot on the preamble's heels")
	pkt := &core.Packet{
		Hdr: core.Header{Kind: core.KData, Tag: 5, MsgSegs: 1,
			SegLen: uint64(len(payload)), MsgLen: uint64(len(payload))},
		Payload: payload,
	}
	frame := pkt.Marshal()
	var lenBuf [4]byte
	lenBuf[0] = byte(len(frame))
	lenBuf[1] = byte(len(frame) >> 8)
	lenBuf[2] = byte(len(frame) >> 16)
	lenBuf[3] = byte(len(frame) >> 24)
	combined := append(append(append([]byte{}, pre...), lenBuf[:]...), frame...)
	if _, err := rc.Write(combined); err != nil {
		t.Fatal(err)
	}
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	recv := make([]byte, len(payload))
	rr := res.gate.Irecv(5, recv)
	if err := engA.Wait(rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recv, payload) {
		t.Fatalf("frame behind preamble lost or corrupted: %q", recv)
	}
	_ = engB
	rc.Close()
}

// TestDeadPeerFailsWaiters: when the peer process dies mid-session, the
// rails' readers fail, the drivers report RailDown, and the engine fails
// the gate's outstanding requests — a blocked Wait returns an error
// instead of hanging forever.
func TestDeadPeerFailsWaiters(t *testing.T) {
	engA, engB := engines(t)
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", twoRails(), Options{})
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
	if _, _, err := Connect(context.Background(), engB, "beta", srv.ControlAddr(), Options{}); err != nil {
		t.Fatal(err)
	}
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	// A receive that the peer will never satisfy.
	rr := res.gate.Irecv(9, make([]byte, 64))
	waitErr := make(chan error, 1)
	go func() { waitErr <- engA.Wait(rr) }()
	// The peer dies.
	if err := engB.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("Wait returned nil after the peer died")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait still blocked 10s after the peer died")
	}
	if res.gate.UpRails() != 0 {
		t.Fatalf("UpRails = %d after peer death, want 0", res.gate.UpRails())
	}
}

// jsonLine marshals v with the session's newline framing.
func jsonLine(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// TestAcceptCapsHelloLine: a client that streams a hello with no newline
// is cut off at the line cap, not buffered until the handshake deadline.
func TestAcceptCapsHelloLine(t *testing.T) {
	engA, _ := engines(t)
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", twoRails(), Options{HandshakeTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The write fails once the server hangs up; only Accept's error
	// matters.
	go conn.Write(bytes.Repeat([]byte{'x'}, 1<<20))
	if _, _, err := srv.Accept(context.Background()); !errors.Is(err, errLineTooLong) {
		t.Fatalf("Accept = %v, want the line-length error", err)
	}
}

// TestAcceptHangupReleasesOffer: a client that reads the hello for a
// tcp+udp+shm session and hangs up fails the Accept, which must close
// the endpoints it offered: no file descriptor and no /dev/shm segment
// stays behind.
func TestAcceptHangupReleasesOffer(t *testing.T) {
	specs := tripleRails()
	if !shmdrv.Supported() {
		specs = specs[:2]
	}
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors")
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	engA, _ := engines(t)
	srv, err := Listen(context.Background(), engA, "alpha", "127.0.0.1:0", specs, Options{HandshakeTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := openFDs()
	accepted := make(chan error, 1)
	go func() {
		_, _, err := srv.Accept(context.Background())
		accepted <- err
	}()
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(conn, hello{Version: Version, Name: "quitter"}); err != nil {
		t.Fatal(err)
	}
	var srvHello hello
	if err := readJSONConn(conn, &srvHello); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-accepted; err == nil {
		t.Fatal("Accept succeeded after the client hung up")
	}
	if after := openFDs(); after > before {
		t.Fatalf("open fds grew from %d to %d", before, after)
	}
	for _, ri := range srvHello.Rails {
		if ri.Proto != "shm" {
			continue
		}
		if _, err := os.Stat(shmring.SegPath(ri.Addr)); !os.IsNotExist(err) {
			t.Fatalf("offered segment %s still in /dev/shm (stat: %v)", ri.Addr, err)
		}
		// Nor any file beside it: the doorbell FIFOs go with the segment.
		if left, _ := filepath.Glob(shmring.SegPath(ri.Addr) + "*"); len(left) > 0 {
			t.Fatalf("offered segment left %v in /dev/shm", left)
		}
	}
}
