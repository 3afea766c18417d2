package relnet_test

import (
	"encoding/binary"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers/memdrv"
	"newmad/internal/relnet"
)

// dataSeg hand-encodes one DATA datagram: the 38-byte segment header
// (kind, flags, payload length, seq, cumulative ack, sack bitmap, frame
// offset, frame length) followed by pay.
func dataSeg(seq uint64, frameOff, frameLen uint32, last bool, pay []byte) []byte {
	b := make([]byte, 38+len(pay))
	b[0] = 1 // DATA
	if last {
		b[1] = 1
	}
	binary.LittleEndian.PutUint32(b[2:], uint32(len(pay)))
	binary.LittleEndian.PutUint64(b[6:], seq)
	binary.LittleEndian.PutUint32(b[30:], frameOff)
	binary.LittleEndian.PutUint32(b[34:], frameLen)
	copy(b[38:], pay)
	return b
}

// hostileRail wraps the receiving end of a loopback transport pair in
// a relnet driver bound to a fresh sink, and returns a function that
// sends one raw datagram to it from the other end.
func hostileRail(name string) (*relnet.Driver, *sink, func([]byte)) {
	ta, tb := memdrv.TransportPair(name, core.Profile{}, 0)
	d := relnet.Wrap(tb, relnet.Config{RTO: 2 * time.Millisecond, RetryBudget: 2})
	s := &sink{}
	d.Bind(0, s)
	return d, s, func(dg []byte) {
		f := core.GetBuf(len(dg))
		copy(f.B, dg)
		_ = ta.Send(f)
	}
}

// FuzzRelnetSegments feeds arbitrary datagrams into one relnet driver.
// The input is cut into datagrams at each header's payload length, so
// the fuzzer can build multi-segment frames. Whatever arrives, the
// driver must not panic, must report at most one RailDown, and must
// hold no buffer lease once closed.
func FuzzRelnetSegments(f *testing.F) {
	frame := make([]byte, core.HeaderLen+16)
	core.EncodeHeader(frame, &core.Header{Kind: core.KData, Tag: 7, MsgSegs: 1, MsgLen: 16, SegLen: 16, PayLen: 16})
	f.Add(dataSeg(1, 0, uint32(len(frame)), true, frame))
	f.Add(append(dataSeg(1, 0, uint32(len(frame)), false, frame[:40]), dataSeg(2, 40, uint32(len(frame)), true, frame[40:])...))
	f.Add(dataSeg(1, 0, core.HeaderLen+core.MaxPayload+1, false, frame))
	f.Add(append(dataSeg(2, 0, 100, true, frame[:10]), dataSeg(1, 0, 1<<20, false, frame)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		before := core.PoolStats().Live
		d, s, send := hostileRail("fuzz")
		for len(data) > 0 {
			n := len(data)
			if n >= 38 {
				n = min(n, 38+int(binary.LittleEndian.Uint32(data[2:])))
			}
			send(data[:n])
			data = data[n:]
		}
		d.Close()
		if _, _, downs := s.counts(); downs > 1 {
			t.Fatalf("%d RailDowns, want at most 1", downs)
		}
		if live := core.PoolStats().Live; live != before {
			t.Fatalf("%d buffer leases live after Close", live-before)
		}
	})
}
