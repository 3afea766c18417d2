// UDP rail bring-up. The leg's TCP half rides the session's control
// connection:
//
//	client                               server
//	  |                                    opens fresh data socket S1
//	  |<-- S1's address ------------------ in the hello
//	  |-- preamble {token,rail} --> S1      (resent until confirmed)
//	  |                                    learns the client's address
//	  |<-- ack {ok} ---------------------- on the control connection
//	  |
//	  aim rail at S1                       aim rail at the client
//
// S1 belongs to one session, so concurrent handshakes never share a
// socket. Only the preamble rides a datagram, so only the client
// retries; the confirmation rides TCP and cannot be lost. The random
// session token authenticates the preamble exactly as it authenticates
// TCP rail preambles, and the server skips any datagram on S1 that does
// not authenticate: an open UDP port receives garbage, and none of it
// may abort a live negotiation. Preamble resends that reach S1 after
// the driver owns it are dropped by relnet's frame decoder as garbage —
// a JSON '{' is not a valid segment kind.
package session

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"time"
)

// udpRetryInterval paces the client's preamble resends.
const udpRetryInterval = 250 * time.Millisecond

// confirmUDPRail is the server half of the leg: it waits on the data
// socket s1 for the datagram carrying pre, confirms on conn, and
// returns the client's data address.
func confirmUDPRail(ctx context.Context, s1 *net.UDPConn, conn net.Conn, pre preamble, deadline time.Time) (*net.UDPAddr, error) {
	var peer *net.UDPAddr
	err := guarded(ctx, s1, deadline, func() error {
		buf := make([]byte, 2048)
		for {
			n, src, err := s1.ReadFromUDP(buf)
			if err != nil {
				return err
			}
			var got preamble
			if json.Unmarshal(buf[:n], &got) == nil && got == pre {
				peer = src
				return writeJSON(conn, railAck{OK: true})
			}
		}
	})
	return peer, err
}

// attachUDPRail is the client half of the leg: it announces a fresh
// socket to the server's data socket at addr, resending pre until the
// confirmation arrives on r, the control connection's reader, whose
// deadline bounds the wait. It returns the socket and the address to
// aim the rail at.
func attachUDPRail(r io.ByteReader, addr string, pre preamble) (*net.UDPConn, *net.UDPAddr, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, nil, err
	}
	uc, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, nil, err
	}
	data, _ := json.Marshal(pre) // a string and an int always marshal
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(udpRetryInterval)
		defer t.Stop()
		for {
			// A failed send is just a lost datagram: the next tick
			// resends, and the confirmation's deadline ends the leg.
			uc.WriteToUDP(data, raddr)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	var ack railAck
	err = readJSON(r, &ack)
	close(stop)
	<-done
	if err == nil && !ack.OK {
		err = errors.New("udp rail not confirmed")
	}
	if err != nil {
		uc.Close()
		return nil, nil, err
	}
	return uc, raddr, nil
}
