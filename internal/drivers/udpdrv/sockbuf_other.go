//go:build !unix

package udpdrv

import (
	"errors"
	"net"
)

// recvBuffer cannot read the grant back here; New keeps the default window.
func recvBuffer(*net.UDPConn) (int, error) { return 0, errors.ErrUnsupported }
