// Package mpl is a message-passing layer on top of the engine — the
// direction the paper's §4 sketches (updating MPICH-Madeleine to use
// NewMadeleine's multi-rail capabilities). It provides ranked
// communicators with blocking point-to-point operations and a full
// collectives subsystem — blocking and nonblocking, with size-aware
// algorithm selection — independent of whether the rails are simulated or
// real.
package mpl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"newmad/internal/core"
)

// Waiter blocks until every given request completes, returning the first
// request error — or until ctx is done, returning ctx.Err() immediately
// and leaving the remaining requests outstanding. Simulation code passes
// a virtual-time waiter (bench.WaitReqsCtx bound to a process, which
// reads deadlines in simulated clock time); real-time code gets
// Engine.WaitCtx semantics by default.
type Waiter func(ctx context.Context, reqs ...core.Request) error

// Comm is a communicator: a set of ranks, this process being one of
// them, with a gate to every other rank.
type Comm struct {
	eng   *core.Engine
	rank  int
	gates []*core.Gate // indexed by rank; nil at our own rank
	wait  Waiter

	// collSeq numbers collective operations; every rank must start
	// collectives on a communicator in the same order, so the counters
	// stay in lockstep and each operation gets the same reserved tag on
	// every rank (see core.ReservedTag).
	collSeq atomic.Uint32

	// adaptEvery, when nonzero, re-fits the selector from the rails'
	// online estimators every adaptEvery collective operations. The
	// re-fit is keyed to collSeq — which advances in lockstep on every
	// rank — so all ranks migrate their crossover points at the same
	// deterministic epoch; see SetAdaptive.
	adaptEvery uint32

	selMu sync.RWMutex
	sel   Selector
}

// MaxUserTag is the largest tag available to applications; larger values
// belong to the engine's reserved namespace, which the collectives use
// for their per-operation matching channels.
const MaxUserTag = core.MaxUserTag

// New creates a communicator. gates[r] must reach rank r and must be nil
// exactly at index rank.
func New(eng *core.Engine, rank int, gates []*core.Gate, wait Waiter) (*Comm, error) {
	if rank < 0 || rank >= len(gates) {
		return nil, fmt.Errorf("mpl: rank %d out of range [0,%d)", rank, len(gates))
	}
	if gates[rank] != nil {
		return nil, fmt.Errorf("mpl: gates[%d] must be nil (self)", rank)
	}
	for r, g := range gates {
		if r != rank && g == nil {
			return nil, fmt.Errorf("mpl: missing gate to rank %d", r)
		}
	}
	if wait == nil {
		wait = func(ctx context.Context, reqs ...core.Request) error {
			return eng.WaitCtx(ctx, reqs...)
		}
	}
	c := &Comm{eng: eng, rank: rank, gates: gates, wait: wait}
	c.sel = DefaultSelector()
	return c, nil
}

// SetSelector installs the collective algorithm selector. All ranks must
// install equivalent selectors: algorithm choice is computed locally from
// (ranks, bytes) and the schedules of different algorithms do not
// interoperate.
func (c *Comm) SetSelector(s Selector) {
	c.selMu.Lock()
	c.sel = s
	c.selMu.Unlock()
}

// Selector returns the current algorithm selector.
func (c *Comm) Selector() Selector {
	c.selMu.RLock()
	defer c.selMu.RUnlock()
	return c.sel
}

// SeedSelector derives the selector's model from the rail profiles of
// this communicator's gates (declared by drivers, or measured by
// internal/sampling when the platform was sampled at initialization) and
// installs the result. It returns the installed selector.
//
// Selection must agree on every rank. SeedSelector is safe when every
// rank sees identical profiles (declared driver models on a homogeneous
// fabric); with independently sampled per-rank figures, seed on one rank
// and distribute the selector instead (bench.Cluster does exactly this).
func (c *Comm) SeedSelector() Selector {
	var profs []core.Profile
	for r, g := range c.gates {
		if r == c.rank {
			continue
		}
		for _, rail := range g.Rails() {
			profs = append(profs, rail.Profile())
		}
		break // rails are symmetric across peers; one gate is enough
	}
	s := SelectorFromProfiles(profs)
	c.SetSelector(s)
	return s
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.gates) }

// Engine returns the underlying engine.
func (c *Comm) Engine() *core.Engine { return c.eng }

func (c *Comm) gate(rank int) *core.Gate {
	if rank < 0 || rank >= len(c.gates) || rank == c.rank {
		panic(fmt.Sprintf("mpl: bad peer rank %d (self %d, size %d)", rank, c.rank, len(c.gates)))
	}
	return c.gates[rank]
}

func checkTag(tag uint32) {
	if tag > MaxUserTag {
		panic(fmt.Sprintf("mpl: tag %#x is in the reserved collective range", tag))
	}
}

// Isend starts a non-blocking send of data to rank dst.
func (c *Comm) Isend(dst int, tag uint32, data []byte) *core.SendReq {
	checkTag(tag)
	return c.gate(dst).Isend(tag, data)
}

// Isendv starts a non-blocking multi-segment send to rank dst.
func (c *Comm) Isendv(dst int, tag uint32, segs [][]byte) *core.SendReq {
	checkTag(tag)
	return c.gate(dst).Isendv(tag, segs)
}

// Irecv starts a non-blocking receive from rank src.
func (c *Comm) Irecv(src int, tag uint32, buf []byte) *core.RecvReq {
	checkTag(tag)
	return c.gate(src).Irecv(tag, buf)
}

// Send sends data to dst and blocks until the buffer is reusable,
// returning the request's terminal error — a dead gate or rail failure
// surfaces here instead of being swallowed.
func (c *Comm) Send(dst int, tag uint32, data []byte) error {
	return c.SendCtx(context.Background(), dst, tag, data)
}

// SendCtx is Send bounded by ctx: on expiry the send is cancelled — its
// queued work freed, the peer's matching receive aborted — and the ctx
// error returned.
func (c *Comm) SendCtx(ctx context.Context, dst int, tag uint32, data []byte) error {
	return c.waitAbandon(ctx, c.Isend(dst, tag, data))
}

// Recv blocks until the next message from src on tag has landed in buf
// and returns its length and the request's terminal error.
func (c *Comm) Recv(src int, tag uint32, buf []byte) (int, error) {
	return c.RecvCtx(context.Background(), src, tag, buf)
}

// RecvCtx is Recv bounded by ctx: on expiry the receive is cancelled —
// unhooked from the match tables — and the ctx error returned.
func (c *Comm) RecvCtx(ctx context.Context, src int, tag uint32, buf []byte) (int, error) {
	r := c.Irecv(src, tag, buf)
	err := c.waitAbandon(ctx, r)
	return r.Len(), err
}

// SendRecv exchanges messages with two (possibly equal) peers
// concurrently — the halo-exchange workhorse. It returns the received
// length and the first request error.
func (c *Comm) SendRecv(dst int, sendTag uint32, send []byte, src int, recvTag uint32, recv []byte) (int, error) {
	return c.SendRecvCtx(context.Background(), dst, sendTag, send, src, recvTag, recv)
}

// SendRecvCtx is SendRecv bounded by ctx; on expiry both outstanding
// requests are cancelled and the ctx error returned.
func (c *Comm) SendRecvCtx(ctx context.Context, dst int, sendTag uint32, send []byte, src int, recvTag uint32, recv []byte) (int, error) {
	rr := c.Irecv(src, recvTag, recv)
	sr := c.Isend(dst, sendTag, send)
	err := c.waitAbandon(ctx, sr, rr)
	return rr.Len(), err
}

// waitAbandon waits for the requests through the communicator's waiter;
// if the wait ends with any request still outstanding (ctx expiry), the
// leftovers are cancelled so their buffers and peers are released rather
// than orphaned.
func (c *Comm) waitAbandon(ctx context.Context, reqs ...core.Request) error {
	err := c.wait(ctx, reqs...)
	if err != nil {
		for _, r := range reqs {
			if !r.Done() {
				r.Cancel(err)
			}
		}
	}
	return err
}

// SetAdaptive enables online selector re-fitting: every `every`
// collective operations (0 disables) the selector's α-β model and
// thresholds are re-derived from the rails' online estimators via
// SelectorFromRails, migrating the algorithm crossover points as the
// observed platform drifts away from its one-shot seed.
//
// Rank uniformity is preserved by construction: the re-fit fires on the
// collective sequence counter, which every rank advances in the same
// order, so all ranks re-fit at the same deterministic epochs; and the
// selector itself is fitted once, on rank 0, then distributed to
// every rank over a small broadcast riding the epoch's reserved
// channel. Independently fitted selectors would drift apart — each
// rank's estimators watch their own wall clock — so the epoch boundary
// is also a (cheap, 40-byte) synchronization point. Call VerifySelector
// after enabling — or at any setup fence — to check that cross-rank
// agreement actually holds; a rank whose broadcast failed keeps its
// previous epoch and is caught there.
//
// Every rank must call SetAdaptive with the same period before the same
// collective, exactly like SetSelector.
func (c *Comm) SetAdaptive(every uint32) {
	c.adaptEvery = every
}

// refit re-derives the selector at an epoch boundary. Rank 0 fits from
// its first peer gate's rail estimators; everyone then agrees on rank
// 0's fit (model and thresholds) via a binomial broadcast on the refit class channel at
// this boundary's sequence number — every rank hits the same boundary
// in lockstep, so the exchange can never cross-match another epoch's.
// The Force override is user intent, stays local, and survives re-fits.
// On a failed exchange the selector is left untouched (the epoch does
// not advance), which VerifySelector reports loudly.
func (c *Comm) refit(seq, epoch uint32) {
	size := c.Size()
	tag := core.ReservedTag(classRefit, seq)
	buf := make([]byte, fitBytes)
	if c.rank == 0 {
		fitted := false
		for r, g := range c.gates {
			if r == c.rank {
				continue
			}
			SelectorFromRails(g.Rails()).putFit(buf)
			fitted = true
			break // rails are symmetric across peers; one gate is enough
		}
		if !fitted {
			return // single-rank communicator: nothing to fit from or tell
		}
	}
	parent, children := binomial(c.rank, size)
	if parent >= 0 {
		if c.wait(context.Background(), c.gates[parent].Irecv(tag, buf)) != nil {
			return
		}
	}
	reqs := make([]core.Request, 0, len(children))
	for _, ch := range children {
		reqs = append(reqs, c.gates[ch].Isend(tag, buf))
	}
	if len(reqs) > 0 && c.wait(context.Background(), reqs...) != nil {
		return
	}
	s := fitFrom(buf)
	s.Epoch = epoch
	s.Force = c.Selector().Force
	c.SetSelector(s)
}

// collTag reserves the matching channel for one collective operation:
// the operation's protocol class plus this communicator's next collective
// sequence number (see Comm.collSeq). With adaptive selection enabled,
// epoch boundaries re-fit the selector here — before the operation's
// algorithm choice, on every rank at the same sequence number.
func (c *Comm) collTag(class uint8) uint32 {
	seq := c.collSeq.Add(1) - 1
	if c.adaptEvery > 0 && seq%c.adaptEvery == 0 {
		c.refit(seq, seq/c.adaptEvery+1)
	}
	return core.ReservedTag(class, seq)
}

// VerifySelector exchanges selector digests across all ranks (an
// allgather on the reserved collective channels) and fails loudly if any
// rank's selector disagrees with this one's: mismatched selectors would
// otherwise pick incompatible algorithms and deadlock or corrupt the
// reserved-tag space mid-collective. Call it at setup, after installing
// or seeding selectors, or after enabling adaptive re-fits.
//
// Like every collective, all ranks must call it in the same position of
// the collective order.
func (c *Comm) VerifySelector(ctx context.Context) error {
	mine := c.Selector().Digest()
	send := make([]byte, 8)
	for i := 0; i < 8; i++ {
		send[i] = byte(mine >> (8 * i))
	}
	recv := make([]byte, 8*c.Size())
	if err := c.AllgatherCtx(ctx, send, recv); err != nil {
		return fmt.Errorf("mpl: selector verification exchange failed: %w", err)
	}
	var bad []int
	for r := 0; r < c.Size(); r++ {
		var d uint64
		for i := 0; i < 8; i++ {
			d |= uint64(recv[8*r+i]) << (8 * i)
		}
		if d != mine {
			bad = append(bad, r)
		}
	}
	if len(bad) != 0 {
		return fmt.Errorf("mpl: selector mismatch: rank %d digest %016x disagrees with ranks %v (install equivalent selectors on every rank, or re-fit at identical epochs)", c.rank, mine, bad)
	}
	return nil
}
