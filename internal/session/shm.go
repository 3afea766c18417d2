// Shared-memory rail bring-up. An shm RailSpec advertises no socket at
// all: both processes must share a host, so the rail's "address" is a
// /dev/shm segment name. The handshake rides entirely on the control
// connection:
//
//	client                          server (in Accept)
//	  |                               creates segment, side 0
//	  |<-- hello rail{proto:shm, ---|
//	  |        addr:<segment name>}
//	  attach segment, side 1
//	  |--- preamble {token,rail} --->| confirms the attach
//
// The server creates a fresh segment per accepted session (offerRail)
// — names are random and single-use, so concurrent sessions never
// collide — and the client's preamble on the (reliable, private)
// control channel both orders the handshake and authenticates the
// attach with the session token, exactly as TCP rail preambles do on
// their own sockets. Once both sides are mapped, the creator unlinks
// the backing file (shmdrv's unlink-on-attach), so an established rail
// leaves nothing in /dev/shm.
//
// A client on a different host (or a platform without /dev/shm) fails
// the attach and aborts its Connect; the server then sees the control
// connection die instead of a preamble and fails its Accept — no
// half-railed gate on either end.
package session

import (
	"net"

	"newmad/internal/drivers/shmdrv"
)

// attachShmRail joins the server's advertised segment as side 1 and
// confirms the attach with a preamble on the control connection. The
// rail profile crosses in the hello like any other rail's; it is baked
// into the driver here because shm drivers start running at
// construction.
func attachShmRail(ctrl net.Conn, ri railInfo, pre preamble) (*shmdrv.Driver, error) {
	d, err := shmdrv.Attach(ri.Addr, shmdrv.Options{Profile: ri.profile()})
	if err != nil {
		return nil, err
	}
	if err := writeJSON(ctrl, pre); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}
