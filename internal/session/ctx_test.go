package session

// Context and handshake-timeout semantics of session establishment: the
// previously hardcoded 30-second socket deadlines are now Options, and
// ctx cancellation pokes the sockets so blocked accepts and reads fail
// promptly.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/strategy"
)

func ctxEngine() *core.Engine {
	return core.New(core.Config{Strategy: strategy.Must("balance")})
}

func oneRail() []RailSpec {
	return []RailSpec{{Addr: "127.0.0.1:0"}}
}

// TestAcceptCtxCancellation: an Accept waiting for a client returns
// promptly with ctx's error when the ctx is cancelled — no client ever
// shows up.
func TestAcceptCtxCancellation(t *testing.T) {
	srv, err := Listen(context.Background(), ctxEngine(), "s", "127.0.0.1:0", oneRail(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = srv.Accept(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Accept = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Accept took %v to observe the cancelled ctx", el)
	}
}

// TestHandshakeTimeoutOption: a client that connects to the control
// socket and then goes silent must be cut off after HandshakeTimeout,
// not after the old hardcoded 30 seconds.
func TestHandshakeTimeoutOption(t *testing.T) {
	srv, err := Listen(context.Background(), ctxEngine(), "s", "127.0.0.1:0", oneRail(),
		Options{HandshakeTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // never speaks
	start := time.Now()
	_, _, err = srv.Accept(context.Background())
	if err == nil {
		t.Fatal("Accept succeeded against a silent client")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Accept took %v; HandshakeTimeout did not bound the silent handshake", el)
	}
}

// TestConnectCtxCancelled: a pre-cancelled ctx aborts Connect before it
// talks to anyone.
func TestConnectCtxCancelled(t *testing.T) {
	srv, err := Listen(context.Background(), ctxEngine(), "s", "127.0.0.1:0", oneRail(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Connect(ctx, ctxEngine(), "c", srv.ControlAddr(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Connect on cancelled ctx = %v", err)
	}
}

// TestConnectHandshakeTimeout: a server that accepts the control
// connection but never answers the hello must not hold Connect past its
// HandshakeTimeout.
func TestConnectHandshakeTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(5 * time.Second) // accept, then stonewall
		}
	}()
	start := time.Now()
	_, _, err = Connect(context.Background(), ctxEngine(), "c", l.Addr().String(),
		Options{HandshakeTimeout: 150 * time.Millisecond})
	if err == nil {
		t.Fatal("Connect succeeded against a stonewalling server")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("Connect took %v; HandshakeTimeout did not bound the handshake", el)
	}
}
