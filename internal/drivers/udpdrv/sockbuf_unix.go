//go:build unix

package udpdrv

import (
	"net"
	"syscall"
)

// recvBuffer reads back the receive buffer the kernel granted conn.
func recvBuffer(conn *net.UDPConn) (n int, err error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	if cerr := rc.Control(func(fd uintptr) {
		n, err = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); cerr != nil {
		return 0, cerr
	}
	return n, err
}
