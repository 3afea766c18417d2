// Package xfer implements a simple bulk file/stream transfer on top of
// the engine: the payload is cut into segment batches and pipelined as
// messages, each striped across every available rail by the engine's
// strategy, with an FNV-1a checksum trailer verifying end-to-end
// integrity. It is the kind of application-level protocol the library
// is meant to host (cmd/nmad-xfer wires it to the session layer).
package xfer

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"

	"newmad/internal/core"
)

// Tags used by the transfer protocol.
const (
	tagHeader = 100
	tagData   = 101
	tagSum    = 102
)

// Options shapes a transfer.
type Options struct {
	// ChunkSize is the bytes per message (default 4 MiB, at most
	// MaxChunk). Each message is independently scheduled, so several are
	// kept in flight. The receiver follows the sender's ChunkSize.
	ChunkSize int
	// Window is the number of messages in flight (default 4).
	Window int
}

func (o *Options) defaults() {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 4 << 20
	}
	if o.Window <= 0 {
		o.Window = 4
	}
}

// MaxChunk bounds Options.ChunkSize: the receiver allocates two buffers
// of the chunk size the sender announces.
const MaxChunk = 64 << 20

// header is the transfer announcement: the total length and the
// sender's chunk size, which the receiver's chunk count follows.
type header struct {
	Total int64
	Chunk int64
}

func (h header) marshal() []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(h.Total))
	binary.LittleEndian.PutUint64(b[8:], uint64(h.Chunk))
	return b[:]
}

func parseHeader(b []byte) (header, error) {
	if len(b) != 16 {
		return header{}, fmt.Errorf("xfer: bad header length %d", len(b))
	}
	h := header{
		Total: int64(binary.LittleEndian.Uint64(b[:8])),
		Chunk: int64(binary.LittleEndian.Uint64(b[8:])),
	}
	if h.Total < 0 || h.Chunk <= 0 || h.Chunk > MaxChunk {
		return header{}, fmt.Errorf("xfer: bad header: total %d, chunk %d", h.Total, h.Chunk)
	}
	return h, nil
}

// Send streams total bytes from r over the gate. The reader must supply
// exactly total bytes.
func Send(eng *core.Engine, gate *core.Gate, r io.Reader, total int64, opts Options) error {
	opts.defaults()
	if opts.ChunkSize > MaxChunk {
		return fmt.Errorf("xfer: chunk size %d above %d", opts.ChunkSize, MaxChunk)
	}
	hdr := header{Total: total, Chunk: int64(opts.ChunkSize)}
	if err := eng.Wait(gate.Isend(tagHeader, hdr.marshal())); err != nil {
		return fmt.Errorf("xfer: send header: %w", err)
	}
	sum := fnv.New64a()
	// Pipelined window of in-flight chunk messages, each with its own
	// buffer so the engine may still be reading from completed-later
	// chunks while we refill earlier ones.
	bufs := make([][]byte, opts.Window)
	for i := range bufs {
		bufs[i] = make([]byte, opts.ChunkSize)
	}
	inflight := make([]*core.SendReq, opts.Window)
	var sent int64
	slot := 0
	for sent < total {
		if inflight[slot] != nil {
			if err := eng.Wait(inflight[slot]); err != nil {
				return fmt.Errorf("xfer: chunk send: %w", err)
			}
			inflight[slot] = nil
		}
		n := int64(opts.ChunkSize)
		if rest := total - sent; rest < n {
			n = rest
		}
		buf := bufs[slot][:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("xfer: read payload: %w", err)
		}
		sum.Write(buf)
		inflight[slot] = gate.Isend(tagData, buf)
		sent += n
		slot = (slot + 1) % opts.Window
	}
	for _, req := range inflight {
		if req != nil {
			if err := eng.Wait(req); err != nil {
				return fmt.Errorf("xfer: chunk send: %w", err)
			}
		}
	}
	if err := eng.Wait(gate.Isend(tagSum, sumBytes(sum))); err != nil {
		return fmt.Errorf("xfer: send checksum: %w", err)
	}
	return nil
}

// Recv receives one transfer from the gate into w and returns the byte
// count. Chunks follow the size the sender announced; a chunk of any
// other length, and a checksum mismatch, fail the transfer.
func Recv(eng *core.Engine, gate *core.Gate, w io.Writer) (int64, error) {
	hbuf := make([]byte, 16)
	hr := gate.Irecv(tagHeader, hbuf)
	if err := eng.Wait(hr); err != nil {
		return 0, fmt.Errorf("xfer: recv header: %w", err)
	}
	hdr, err := parseHeader(hbuf[:hr.Len()])
	if err != nil {
		return 0, err
	}
	sum := fnv.New64a()
	// Double-buffer receives so the next chunk is already landing while
	// this one is written out.
	bufs := [][]byte{make([]byte, hdr.Chunk), make([]byte, hdr.Chunk)}
	var reqs [2]*core.RecvReq
	var got int64
	totalChunks := hdr.Total / hdr.Chunk
	if hdr.Total%hdr.Chunk != 0 {
		totalChunks++
	}
	posted := int64(0)
	for ; posted < 2 && posted < totalChunks; posted++ {
		reqs[posted] = gate.Irecv(tagData, bufs[posted])
	}
	slot := 0
	remainingPosts := totalChunks - posted
	for got < hdr.Total {
		req := reqs[slot]
		if err := eng.Wait(req); err != nil {
			return got, fmt.Errorf("xfer: recv chunk: %w", err)
		}
		if want := min(hdr.Chunk, hdr.Total-got); int64(req.Len()) != want {
			return got, fmt.Errorf("xfer: chunk of %d bytes at offset %d, want %d", req.Len(), got, want)
		}
		data := bufs[slot][:req.Len()]
		sum.Write(data)
		if _, err := w.Write(data); err != nil {
			return got, fmt.Errorf("xfer: write payload: %w", err)
		}
		got += int64(req.Len())
		if remainingPosts > 0 {
			reqs[slot] = gate.Irecv(tagData, bufs[slot])
			remainingPosts--
		}
		slot = (slot + 1) % 2
	}
	sbuf := make([]byte, 8)
	sr := gate.Irecv(tagSum, sbuf)
	if err := eng.Wait(sr); err != nil {
		return got, fmt.Errorf("xfer: recv checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint64(sbuf); want != sum.Sum64() {
		return got, fmt.Errorf("xfer: checksum mismatch: got %016x want %016x", sum.Sum64(), want)
	}
	return got, nil
}

func sumBytes(h hash.Hash64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], h.Sum64())
	return b[:]
}
