package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind discriminates wire packet types.
type Kind uint8

// Packet kinds.
const (
	// KData carries one segment eagerly, or several aggregated segment
	// records when Hdr.Agg > 0.
	KData Kind = iota + 1
	// KRTS announces a large segment (rendezvous request-to-send).
	KRTS
	// KCTS grants a rendezvous (clear-to-send).
	KCTS
	// KChunk carries a slice of a rendezvous body.
	KChunk
	// KAbort tells the peer the sender gave up on message (Tag, MsgID)
	// — a rail died with its delivery status unknown, or the send was
	// cancelled — so the matching receive fails instead of waiting
	// forever for bytes that will never be resent.
	KAbort
	// KRecvAbort tells the peer its message (Tag, MsgID) has no receive
	// any more — the posted receive was cancelled — so a sender parked
	// in the rendezvous handshake fails instead of waiting forever for
	// a CTS that will never come.
	KRecvAbort
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KData:
		return "DATA"
	case KRTS:
		return "RTS"
	case KCTS:
		return "CTS"
	case KChunk:
		return "CHUNK"
	case KAbort:
		return "ABORT"
	case KRecvAbort:
		return "RECV-ABORT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Header is the logical packet header. The same layout is used on real
// wires (tcpdrv) and as the record header inside aggregated packets.
type Header struct {
	Kind     Kind
	Agg      uint16 // number of aggregated records in the payload (KData)
	Tag      uint32 // application channel
	MsgID    uint64 // per-(gate,tag) message sequence number
	SegIndex uint16 // segment index within the message
	MsgSegs  uint16 // total segments in the message
	MsgLen   uint64 // total message length in bytes
	MsgOff   uint64 // offset of this segment within the message
	SegLen   uint64 // total segment length in bytes
	Off      uint64 // offset of this packet's payload within the segment
	RdvID    uint64 // rendezvous identity (KRTS/KCTS/KChunk)
	PayLen   uint32 // payload byte count following the header
}

// HeaderLen is the encoded header size in bytes.
const HeaderLen = 1 + 1 + 2 + 4 + 8 + 2 + 2 + 8 + 8 + 8 + 8 + 8 + 4

// MaxPayload is the largest payload of any packet the engine posts,
// inclusive: the largest pooled buffer class. EagerOK, Backlog.AggMax
// and Backlog.ChunkFrom clamp to it and the split rows cut their
// shares by it, so a wire frame is never longer than HeaderLen +
// MaxPayload, and drivers reject a peer that claims more.
const MaxPayload = 8 << 20

// EncodeHeader writes h into buf, which must be at least HeaderLen bytes,
// and returns HeaderLen.
func EncodeHeader(buf []byte, h *Header) int {
	_ = buf[HeaderLen-1]
	buf[0] = byte(h.Kind)
	buf[1] = 0 // reserved
	binary.LittleEndian.PutUint16(buf[2:], h.Agg)
	binary.LittleEndian.PutUint32(buf[4:], h.Tag)
	binary.LittleEndian.PutUint64(buf[8:], h.MsgID)
	binary.LittleEndian.PutUint16(buf[16:], h.SegIndex)
	binary.LittleEndian.PutUint16(buf[18:], h.MsgSegs)
	binary.LittleEndian.PutUint64(buf[20:], h.MsgLen)
	binary.LittleEndian.PutUint64(buf[28:], h.MsgOff)
	binary.LittleEndian.PutUint64(buf[36:], h.SegLen)
	binary.LittleEndian.PutUint64(buf[44:], h.Off)
	binary.LittleEndian.PutUint64(buf[52:], h.RdvID)
	binary.LittleEndian.PutUint32(buf[60:], h.PayLen)
	return HeaderLen
}

// ErrShortHeader reports a truncated header buffer.
var ErrShortHeader = errors.New("core: short header")

// DecodeHeader parses a header from buf.
func DecodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderLen {
		return h, ErrShortHeader
	}
	h.Kind = Kind(buf[0])
	if h.Kind < KData || h.Kind > KRecvAbort {
		return h, fmt.Errorf("core: bad packet kind %d", buf[0])
	}
	h.Agg = binary.LittleEndian.Uint16(buf[2:])
	h.Tag = binary.LittleEndian.Uint32(buf[4:])
	h.MsgID = binary.LittleEndian.Uint64(buf[8:])
	h.SegIndex = binary.LittleEndian.Uint16(buf[16:])
	h.MsgSegs = binary.LittleEndian.Uint16(buf[18:])
	h.MsgLen = binary.LittleEndian.Uint64(buf[20:])
	h.MsgOff = binary.LittleEndian.Uint64(buf[28:])
	h.SegLen = binary.LittleEndian.Uint64(buf[36:])
	h.Off = binary.LittleEndian.Uint64(buf[44:])
	h.RdvID = binary.LittleEndian.Uint64(buf[52:])
	h.PayLen = binary.LittleEndian.Uint32(buf[60:])
	return h, nil
}

// Packet is one unit handed to a driver: a header plus payload bytes.
// senders references the send requests whose data the packet carries, so
// completion can be credited when the driver reports the send done.
//
// An outbound aggregate carries its payload as a gather list instead of
// Payload: see Len, AppendPayload and EncodeTo, through which drivers
// read every packet's payload.
//
// Packets on the hot path are pooled. frame, when set, is the arena
// lease the packet owns: an aggregate's record headers on the send side,
// a driver read buffer backing Payload on the receive side; Release
// returns both the packet struct and the lease. Ownership is
// single-holder: the engine releases outbound packets when their send
// completes or their rail fails, and inbound packets after the arrival
// is consumed.
type Packet struct {
	Hdr     Header
	Payload []byte

	// recs is an outbound aggregate's payload (Payload is nil then):
	// record header, record bytes, alternately, in wire order. The
	// headers are slices of frame; the record bytes alias their senders'
	// buffers, which stay valid until the send completes, exactly as a
	// single segment's Payload does.
	recs    [][]byte
	senders []senderRef
	frame   *Buf
	// postedAt is the engine-clock timestamp post stamped on the packet;
	// sendComplete turns it into an estimator observation.
	postedAt int64
}

// SenderReq returns the single send request the packet carries data for,
// or nil when the packet is a control packet or aggregates several
// requests. Strategies use it to correlate a scheduled packet back to the
// request it advances (hedging registers its completion watch this way).
func (p *Packet) SenderReq() *SendReq {
	if len(p.senders) != 1 {
		return nil
	}
	return p.senders[0].req
}

type senderRef struct {
	req   *SendReq
	bytes int // payload bytes of this request carried by the packet
}

// Len is the payload length in bytes: the segment's, or an aggregate's
// records with their headers.
func (p *Packet) Len() int {
	if len(p.recs) == 0 {
		return len(p.Payload)
	}
	n := 0
	for _, b := range p.recs {
		n += len(b)
	}
	return n
}

// WireLen is the number of logical bytes the packet occupies on the wire
// (header + payload). Physical per-packet overhead is the driver's
// business.
func (p *Packet) WireLen() int { return HeaderLen + p.Len() }

// AppendPayload appends the payload to dst in wire order, as the slices
// a vectored write takes — the segment, or an aggregate's record headers
// and records — and returns the extended slice. The slices alias the
// packet and its senders' buffers: read them only until the send
// completes.
func (p *Packet) AppendPayload(dst [][]byte) [][]byte {
	if len(p.recs) == 0 {
		return append(dst, p.Payload)
	}
	return append(dst, p.recs...)
}

// EncodeTo frames the packet — header, then payload — into dst, which
// must have room for WireLen bytes, and returns the bytes written. This
// is the zero-intermediate-copy encode: drivers frame directly into an
// arena lease instead of through Marshal's fresh allocation, and an
// aggregate's records are copied once, from the senders' buffers.
func (p *Packet) EncodeTo(dst []byte) int {
	p.Hdr.PayLen = uint32(p.Len())
	n := EncodeHeader(dst, &p.Hdr)
	if len(p.recs) == 0 {
		return n + copy(dst[n:], p.Payload)
	}
	for _, b := range p.recs {
		n += copy(dst[n:], b)
	}
	return n
}

// Marshal encodes the packet (header, then payload) into a fresh buffer.
func (p *Packet) Marshal() []byte {
	buf := make([]byte, p.WireLen())
	p.EncodeTo(buf)
	return buf
}

// Release returns a pooled packet (and its backing arena lease, if any)
// for reuse. The caller must hold the only live reference; the packet
// and its payload must not be touched afterwards.
func (p *Packet) Release() {
	if p.frame != nil {
		p.frame.Release()
		p.frame = nil
	}
	for i := range p.senders {
		p.senders[i] = senderRef{}
	}
	p.senders = p.senders[:0]
	clear(p.recs)
	p.recs = p.recs[:0]
	p.Hdr = Header{}
	p.Payload = nil
	p.postedAt = 0
	packetPool.Put(p)
}

// Unmarshal decodes a packet from a buffer produced by Marshal. The
// payload aliases buf.
func Unmarshal(buf []byte) (*Packet, error) {
	h, err := DecodeHeader(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < HeaderLen+int(h.PayLen) {
		return nil, fmt.Errorf("core: packet truncated: have %d want %d", len(buf)-HeaderLen, h.PayLen)
	}
	return &Packet{Hdr: h, Payload: buf[HeaderLen : HeaderLen+int(h.PayLen)]}, nil
}

// UnmarshalFrame decodes a packet from an arena lease holding one wire
// frame. The payload aliases the lease, and the returned pooled packet
// takes ownership of it: Packet.Release returns both. On error the lease
// is released before returning.
func UnmarshalFrame(f *Buf) (*Packet, error) {
	h, err := DecodeHeader(f.B)
	if err != nil {
		f.Release()
		return nil, err
	}
	if len(f.B) < HeaderLen+int(h.PayLen) {
		n := len(f.B) - HeaderLen
		f.Release()
		return nil, fmt.Errorf("core: packet truncated: have %d want %d", n, h.PayLen)
	}
	p := getPacket()
	p.Hdr = h
	p.Payload = f.B[HeaderLen : HeaderLen+int(h.PayLen)]
	p.frame = f
	return p, nil
}

// String implements fmt.Stringer for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("%s tag=%d msg=%d seg=%d/%d off=%d len=%d agg=%d",
		p.Hdr.Kind, p.Hdr.Tag, p.Hdr.MsgID, p.Hdr.SegIndex, p.Hdr.MsgSegs, p.Hdr.Off, p.Len(), p.Hdr.Agg)
}
