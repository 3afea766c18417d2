package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodePacket fuzzes the wire-decoding path: Unmarshal (header
// parsing plus framing checks) and, for aggregated packets, the
// walkRecords record walk. The seed corpus replays the corrupt-input
// classes hardened in the progress-engine PR: truncated headers, unknown
// kinds, payload-length overruns, and aggregate records that overrun
// their packet. Decoding must never panic; whatever decodes must satisfy
// the framing invariants and survive a marshal round trip.
func FuzzDecodePacket(f *testing.F) {
	// A well-formed single-segment data packet.
	good := (&Packet{
		Hdr:     Header{Kind: KData, Tag: 7, MsgID: 3, MsgSegs: 1, MsgLen: 5, SegLen: 5},
		Payload: []byte("hello"),
	}).Marshal()
	f.Add(good)

	// A well-formed aggregate carrying two records.
	recA := (&Packet{Hdr: Header{Kind: KData, Tag: 1, MsgSegs: 1, MsgLen: 3, SegLen: 3}, Payload: []byte("abc")}).Marshal()
	recB := (&Packet{Hdr: Header{Kind: KData, Tag: 2, MsgSegs: 1, MsgLen: 2, SegLen: 2}, Payload: []byte("xy")}).Marshal()
	agg := &Packet{Hdr: Header{Kind: KData, Agg: 2}, Payload: append(append([]byte{}, recA...), recB...)}
	f.Add(agg.Marshal())

	// Truncated header.
	f.Add(good[:HeaderLen-1])
	// Unknown kind (0 and far out of range).
	bad := append([]byte(nil), good...)
	bad[0] = 0
	f.Add(append([]byte(nil), bad...))
	bad[0] = 200
	f.Add(append([]byte(nil), bad...))
	// PayLen overruns the buffer.
	over := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(over[60:], 1<<30)
	f.Add(over)
	// PayLen with the top bit set (32-bit int wraparound probe).
	wrap := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(wrap[60:], 0xffffffff)
	f.Add(wrap)
	// Aggregate whose first record overruns the packet.
	evil := &Packet{Hdr: Header{Kind: KData, Agg: 2}, Payload: append([]byte(nil), recA...)}
	evilBuf := evil.Marshal()
	binary.LittleEndian.PutUint32(evilBuf[HeaderLen+60:], 1<<31-1)
	f.Add(evilBuf)
	// Aggregate claiming far more records than it carries.
	many := &Packet{Hdr: Header{Kind: KData, Agg: 0xffff}, Payload: recA}
	f.Add(many.Marshal())
	// Rendezvous control packets.
	f.Add((&Packet{Hdr: Header{Kind: KRTS, RdvID: 9, MsgLen: 1 << 40, SegLen: 1 << 40}}).Marshal())
	f.Add((&Packet{Hdr: Header{Kind: KAbort, Tag: 5, MsgID: 1}}).Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return // rejected input: fine, as long as nothing panicked
		}
		// Framing invariants of an accepted packet.
		if int(p.Hdr.PayLen) != len(p.Payload) {
			t.Fatalf("PayLen %d != payload %d", p.Hdr.PayLen, len(p.Payload))
		}
		if p.Hdr.Kind < KData || p.Hdr.Kind > KAbort {
			t.Fatalf("accepted unknown kind %d", p.Hdr.Kind)
		}
		// Marshal round trip must reproduce header and payload.
		re, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("remarshal rejected: %v", err)
		}
		if re.Hdr != p.Hdr || !bytes.Equal(re.Payload, p.Payload) {
			t.Fatal("marshal round trip changed the packet")
		}
		// The aggregate record walk must stay inside the payload no
		// matter what the record headers claim.
		if p.Hdr.Agg > 0 {
			walked, records := 0, 0
			werr := walkRecords(p, func(_ Header, data []byte) {
				walked += HeaderLen + len(data)
				records++
			})
			if walked > len(p.Payload) {
				t.Fatalf("aggregate walk read %d bytes from a %d-byte payload", walked, len(p.Payload))
			}
			if records > int(p.Hdr.Agg) {
				t.Fatalf("decoded %d records, header claims %d", records, p.Hdr.Agg)
			}
			if werr == nil && records != int(p.Hdr.Agg) {
				t.Fatalf("decoded %d records without error, header claims %d", records, p.Hdr.Agg)
			}
		}
	})
}
