package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the engine's buffer arena: size-classed pools for the
// byte buffers that move packets (wire frames, aggregation staging,
// driver read buffers) plus object pools for the hot-path packet, unit
// and request structs. Leases follow the request lifecycle — a pooled
// buffer is released when the work it carries completes, is cancelled,
// or its rail fails — and the pool accounting plus the optional poison
// mode let tests prove no released buffer is ever written again and no
// lease is leaked. See README "Performance" for the ownership rules.

// Buf is one leased buffer from the arena. B is the usable region, sized
// exactly as requested from GetBuf; the backing array is a size class:
// a power of two, or for the top class one full frame. Release returns
// the lease; the holder must not touch B afterwards.
type Buf struct {
	B []byte

	full     []byte
	free     func() // release hook for external memory (WrapBuf)
	class    int8   // size-class index, -1 for oversize (unpooled)
	poisoned bool
	released bool
}

const (
	poolMinBits = 6  // smallest class: 64 B (one header)
	poolMaxBits = 23 // largest class: 8 MiB, widened to poolMaxBytes
	poolClasses = poolMaxBits - poolMinBits + 1
	// poolMaxBytes is the top class's size and the largest pooled
	// request: a full frame, a MaxPayload chunk behind its header.
	poolMaxBytes = HeaderLen + MaxPayload
	poisonByte   = 0xDB
)

var bufPools [poolClasses]sync.Pool

// Pool accounting: gets/puts are cumulative, live is their difference.
// drvtest's leak invariant asserts live returns to its starting value
// once a driver pair is drained and closed.
var (
	bufGets atomic.Uint64
	bufPuts atomic.Uint64
	bufLive atomic.Int64
)

// poolChecks enables the poison canary: released pooled buffers are
// filled with poisonByte, and the fill is verified when the buffer is
// next leased. Any write to a buffer after its release — the
// use-after-free of arena allocation — trips the verification.
var poolChecks atomic.Bool

// SetPoolChecks toggles poison-canary verification of the buffer arena.
// Intended for tests: it makes every release O(n) in the buffer size.
func SetPoolChecks(on bool) { poolChecks.Store(on) }

// PoolStat is a snapshot of the arena's lease accounting.
type PoolStat struct {
	Gets uint64 // buffers leased
	Puts uint64 // buffers released
	Live int64  // leases currently outstanding
}

// PoolStats returns the arena's lease accounting. The counters are
// global, so a stable Live across an operation proves the operation
// leaked no leases.
func PoolStats() PoolStat {
	return PoolStat{Gets: bufGets.Load(), Puts: bufPuts.Load(), Live: bufLive.Load()}
}

// classFor maps a requested size to its size class, or -1 for oversize.
func classFor(n int) int {
	if n <= 1<<poolMinBits {
		return 0
	}
	if n > poolMaxBytes {
		return -1
	}
	return min(bits.Len(uint(n-1))-poolMinBits, poolClasses-1)
}

// classSize is the backing size of class c.
func classSize(c int) int {
	if c == poolClasses-1 {
		return poolMaxBytes
	}
	return 1 << (c + poolMinBits)
}

// GetBuf leases a buffer of exactly n usable bytes from the arena.
// Oversize requests (beyond the largest class) are plain allocations
// that Release simply drops.
func GetBuf(n int) *Buf {
	bufGets.Add(1)
	bufLive.Add(1)
	c := classFor(n)
	if c < 0 {
		b := make([]byte, n)
		return &Buf{B: b, full: b, class: -1}
	}
	if v := bufPools[c].Get(); v != nil {
		b := v.(*Buf)
		if b.poisoned {
			verifyPoison(b)
			b.poisoned = false
		}
		b.released = false
		b.B = b.full[:n]
		return b
	}
	full := make([]byte, classSize(c))
	return &Buf{B: full[:n], full: full, class: int8(c)}
}

// WrapBuf dresses externally owned memory — a shared-memory arena
// region, a mapped device buffer — as an arena lease: it enters the
// same Gets/Puts/Live accounting as pooled buffers (so the drvtest leak
// invariant covers it), and Release invokes free exactly once instead
// of pooling. The bytes belong to whoever provided them; the poison
// canary never touches wrapped buffers.
func WrapBuf(ext []byte, free func()) *Buf {
	bufGets.Add(1)
	bufLive.Add(1)
	return &Buf{B: ext, full: ext, free: free, class: -1}
}

// Release returns the lease. The buffer must not be read or written
// afterwards; with SetPoolChecks enabled that rule is enforced by a
// poison fill verified at the next lease.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	if b.released {
		panic("core: pooled buffer released twice")
	}
	b.released = true
	bufPuts.Add(1)
	bufLive.Add(-1)
	if b.free != nil {
		fn := b.free
		b.free = nil
		b.B = nil
		fn()
		return
	}
	if b.class < 0 {
		return // oversize: not pooled, the GC takes it
	}
	b.B = nil
	if poolChecks.Load() {
		for i := range b.full {
			b.full[i] = poisonByte
		}
		b.poisoned = true
	}
	bufPools[b.class].Put(b)
}

func verifyPoison(b *Buf) {
	for i, v := range b.full {
		if v != poisonByte {
			panic(fmt.Sprintf("core: released buffer written after reuse (class %d, byte %d = %#x)", b.class, i, v))
		}
	}
}

// ---- object pools -------------------------------------------------------

var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// getPacket leases a packet struct with clean header/payload and an
// empty (capacity-preserving) senders list.
func getPacket() *Packet {
	return packetPool.Get().(*Packet)
}

var unitPool = sync.Pool{New: func() any { return new(Unit) }}

// getUnit leases a clean unit struct.
func getUnit() *Unit { return unitPool.Get().(*Unit) }

// putUnit recycles a unit the backlog has fully consumed. Callers must
// hold the only reference (MakeEager consumes popped segments this way).
func putUnit(u *Unit) {
	*u = Unit{}
	unitPool.Put(u)
}

var (
	sendReqPool = sync.Pool{New: func() any { return new(SendReq) }}
	recvReqPool = sync.Pool{New: func() any { return new(RecvReq) }}
)

func getSendReq() *SendReq { return sendReqPool.Get().(*SendReq) }
func getRecvReq() *RecvReq { return recvReqPool.Get().(*RecvReq) }

// ---- batched driver events ----------------------------------------------

// EventKind discriminates the entries of an EventBatch.
type EventKind uint8

// Event kinds, mirroring the four Events callbacks.
const (
	EvSendComplete EventKind = iota + 1
	EvSendFailed
	EvArrive
	EvRailDown
)

// DriverEvent is one driver→engine event inside an EventBatch. Pkt is
// the failed packet for EvSendFailed and the arrived packet for
// EvArrive; Err accompanies EvSendFailed and EvRailDown.
type DriverEvent struct {
	Kind EventKind
	Pkt  *Packet
	Err  error
}

// EventBatch carries several driver events into a gate's progress domain
// in one delivery, so a busy rail costs one domain acquisition per batch
// instead of one per packet. Batches are pooled: the driver fills one
// with GetEventBatch/Add and hands it to Events.DeliverBatch (when the
// sink implements BatchEvents); ownership transfers with the call and
// the engine recycles the batch after dispatching its entries.
type EventBatch struct {
	events []DriverEvent
}

var eventBatchPool = sync.Pool{New: func() any { return new(EventBatch) }}

// GetEventBatch leases an empty batch.
func GetEventBatch() *EventBatch {
	return eventBatchPool.Get().(*EventBatch)
}

// Add appends one event.
func (b *EventBatch) Add(ev DriverEvent) { b.events = append(b.events, ev) }

// Len reports the number of buffered events.
func (b *EventBatch) Len() int { return len(b.events) }

// putEventBatch recycles a dispatched batch.
func putEventBatch(b *EventBatch) {
	for i := range b.events {
		b.events[i] = DriverEvent{}
	}
	b.events = b.events[:0]
	eventBatchPool.Put(b)
}
