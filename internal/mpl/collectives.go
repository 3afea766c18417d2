package mpl

import (
	"context"
	"encoding/binary"
	"fmt"
)

// Collective operations, blocking and nonblocking. Every operation is
// compiled into a stage schedule (see coll.go) by one of the planners
// below; the algorithm family per operation is chosen by the
// communicator's Selector from the message size and rank count:
//
//	linear    one flat fan-in/fan-out stage rooted at one rank
//	tree      binomial trees (rooted ops), dissemination rounds (Barrier)
//	pipeline  chunked chain Bcast, ring reduce-scatter/allgather, pairwise
//	          exchange Alltoall
//
// Rooted tree algorithms work in root-relative virtual rank space:
// vrank = (rank - root + size) % size, so vrank 0 is always the root.
//
// All ranks must start collectives on a communicator in the same order
// (the usual MPI rule): the per-operation tag comes from a counter that
// advances identically on every rank, which is also what lets several
// nonblocking collectives be outstanding at once without their traffic
// cross-matching.

// Reserved-tag protocol classes, one per collective operation kind.
const (
	classBarrier uint8 = iota + 1
	classBcast
	classGather
	classScatter
	classReduce
	classAllreduce
	classAllgather
	classAlltoall
	// classRefit carries the adaptive selector re-fit's model
	// broadcast (see Comm.refit) — not a user-visible collective, but it
	// shares the lockstep sequence space, so it needs its own class to
	// keep its traffic off the real operations' channels.
	classRefit
)

// Op is an elementwise reduction operator: F folds src into dst
// (dst[i] op= src[i]) over equal-length buffers whose length is a
// multiple of Elem. F must be associative and commutative — the tree and
// ring schedules combine contributions in rank-dependent orders.
type Op struct {
	Elem int
	F    func(dst, src []byte)
}

// OpSumInt64 sums little-endian int64 elements.
func OpSumInt64() Op { return Op{Elem: 8, F: sumInt64} }

// sumInt64 folds src into dst as little-endian int64 lanes, four lanes
// per iteration: the fixed-length reslices let the compiler drop the
// bounds checks, and encoding/binary keeps big-endian hosts correct.
// Two's-complement addition is the same on int64 and uint64.
func sumInt64(dst, src []byte) {
	le := binary.LittleEndian
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		le.PutUint64(d[0:], le.Uint64(d[0:])+le.Uint64(s[0:]))
		le.PutUint64(d[8:], le.Uint64(d[8:])+le.Uint64(s[8:]))
		le.PutUint64(d[16:], le.Uint64(d[16:])+le.Uint64(s[16:]))
		le.PutUint64(d[24:], le.Uint64(d[24:])+le.Uint64(s[24:]))
		dst, src = dst[32:], src[32:]
	}
	for len(dst) >= 8 && len(src) >= 8 {
		le.PutUint64(dst, le.Uint64(dst)+le.Uint64(src))
		dst, src = dst[8:], src[8:]
	}
}

// OpSumUint8 sums bytes modulo 256.
func OpSumUint8() Op {
	return Op{Elem: 1, F: func(dst, src []byte) {
		for i := range dst {
			dst[i] += src[i]
		}
	}}
}

// OpXor xors bytes.
func OpXor() Op {
	return Op{Elem: 1, F: func(dst, src []byte) {
		for i := range dst {
			dst[i] ^= src[i]
		}
	}}
}

// vrank maps a real rank into root-relative virtual rank space.
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// realRank maps a virtual rank back to the real rank.
func realRank(v, root, size int) int { return (v + root) % size }

// binomial returns the binomial-tree parent (-1 for the root) and
// children of virtual rank v, children in decreasing-subtree order.
func binomial(v, size int) (parent int, children []int) {
	parent = -1
	mask := 1
	for mask < size {
		if v&mask != 0 {
			parent = v - mask
			break
		}
		mask <<= 1
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if v+m < size {
			children = append(children, v+m)
		}
	}
	return parent, children
}

// subtreeSpan returns the number of consecutive virtual ranks covered by
// v's binomial subtree (v itself included).
func subtreeSpan(v, size int) int {
	if v == 0 {
		return size
	}
	lsb := v & -v
	if v+lsb > size {
		return size - v
	}
	return lsb
}

// ringRange returns the byte range of block i when a bytes-long buffer of
// elem-sized elements is cut into size contiguous blocks.
func ringRange(bytes, elem, size, i int) (lo, hi int) {
	e := bytes / elem
	return i * e / size * elem, (i + 1) * e / size * elem
}

// ---------------------------------------------------------------- Barrier

// IBarrier starts a nonblocking barrier: the handle completes once every
// rank has entered its own (I)Barrier call.
func (c *Comm) IBarrier() *Coll {
	size := c.Size()
	tag := c.collTag(classBarrier)
	var stages []stage
	switch c.Selector().barrier(size) {
	case AlgoLinear:
		// Everyone pings rank 0; rank 0 answers everyone.
		if c.rank == 0 {
			pings := make([]byte, size)
			var in, out []post
			for r := 1; r < size; r++ {
				in = append(in, post{peer: r, data: pings[r : r+1]})
				out = append(out, post{peer: r, send: true, data: pings[r : r+1]})
			}
			stages = []stage{{posts: in}, {posts: out}}
		} else if size > 1 {
			b := make([]byte, 2)
			stages = []stage{
				{posts: []post{{peer: 0, send: true, data: b[:1]}}},
				{posts: []post{{peer: 0, data: b[1:]}}},
			}
		}
	default: // tree: dissemination rounds, log2(size) depth for any size
		buf := make([]byte, 2)
		for shift := 1; shift < size; shift <<= 1 {
			stages = append(stages, stage{posts: []post{
				{peer: (c.rank + shift) % size, send: true, data: buf[:1]},
				{peer: (c.rank - shift + size) % size, data: buf[1:]},
			}})
		}
	}
	return c.startColl(tag, stages)
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error { return c.IBarrier().Wait() }

// BarrierCtx is Barrier bounded by ctx: on expiry the barrier is
// cancelled and the ctx error returned.
func (c *Comm) BarrierCtx(ctx context.Context) error { return c.collCtx(ctx, c.IBarrier()) }

// ------------------------------------------------------------------ Bcast

// IBcast starts a nonblocking broadcast of root's buf to every rank.
func (c *Comm) IBcast(root int, buf []byte) *Coll {
	return c.startColl(c.collTag(classBcast),
		c.bcastStages(root, buf, c.Selector().pick(c.Size(), len(buf), bcastCost)))
}

// bcastStages plans a broadcast (also the second half of the composed
// allreduce and allgather); the operation tag is applied by startColl.
func (c *Comm) bcastStages(root int, buf []byte, algo Algo) []stage {
	size := c.Size()
	switch algo {
	case AlgoLinear:
		if c.rank != root {
			return []stage{{posts: []post{{peer: root, data: buf}}}}
		}
		var out []post
		for r := 0; r < size; r++ {
			if r != root {
				out = append(out, post{peer: r, send: true, data: buf})
			}
		}
		if len(out) == 0 {
			return nil
		}
		return []stage{{posts: out}}
	case AlgoPipeline:
		return c.bcastChain(root, buf)
	default: // tree
		var stages []stage
		parent, children := binomial(vrank(c.rank, root, size), size)
		if parent >= 0 {
			stages = append(stages, stage{posts: []post{{peer: realRank(parent, root, size), data: buf}}})
		}
		var out []post
		for _, cv := range children {
			out = append(out, post{peer: realRank(cv, root, size), send: true, data: buf})
		}
		if len(out) > 0 {
			stages = append(stages, stage{posts: out})
		}
		return stages
	}
}

// bcastChain is the pipelined broadcast: the ranks form a chain in
// virtual rank order and the payload moves down it in chunks, as one
// dataflow stage. The root posts every chunk's send; every other rank
// pre-posts every chunk's receive, and a relay's receive carries a
// follow-up send that forwards the chunk to its successor as soon as it
// (and every chunk before it) has arrived. A link thus carries as many
// chunks at once as the strategy will place, so on a multi-rail gate
// consecutive chunks ride different rails.
func (c *Comm) bcastChain(root int, buf []byte) []stage {
	size := c.Size()
	if size == 1 {
		return nil
	}
	chunk := c.Selector().chunk()
	v := vrank(c.rank, root, size)
	prev, next := realRank(v-1, root, size), realRank(v+1, root, size)
	var ps []post
	for lo := 0; lo < len(buf); lo += chunk {
		b := buf[lo:min(lo+chunk, len(buf))]
		switch {
		case v == 0:
			ps = append(ps, post{peer: next, send: true, data: b})
		case v < size-1:
			ps = append(ps, post{peer: prev, data: b, fwd: &post{peer: next, send: true, data: b}})
		default:
			ps = append(ps, post{peer: prev, data: b})
		}
	}
	if len(ps) == 0 {
		return nil
	}
	return []stage{{posts: ps}}
}

// Bcast broadcasts root's buf to every rank.
func (c *Comm) Bcast(root int, buf []byte) error { return c.IBcast(root, buf).Wait() }

// BcastCtx is Bcast bounded by ctx; on expiry the broadcast is cancelled.
func (c *Comm) BcastCtx(ctx context.Context, root int, buf []byte) error {
	return c.collCtx(ctx, c.IBcast(root, buf))
}

// ----------------------------------------------------------------- Gather

// IGather starts a nonblocking gather of every rank's equal-length send
// block into recv on root, ordered by rank. recv must be
// len(send)*Size() bytes on root and is ignored elsewhere.
func (c *Comm) IGather(root int, send, recv []byte) *Coll {
	size := c.Size()
	n := len(send)
	if c.rank == root && len(recv) < n*size {
		panic(fmt.Sprintf("mpl: Gather recv %d < %d", len(recv), n*size))
	}
	return c.startColl(c.collTag(classGather), c.gatherStages(root, send, recv,
		c.Selector().pick(size, n*size, nil)))
}

// gatherStages plans a gather (also the first half of the composed
// allgather); the operation tag is applied by startColl.
func (c *Comm) gatherStages(root int, send, recv []byte, algo Algo) []stage {
	size := c.Size()
	n := len(send)
	if algo == AlgoLinear {
		if c.rank != root {
			return []stage{{posts: []post{{peer: root, send: true, data: send}}}}
		}
		copy(recv[root*n:], send)
		var in []post
		for r := 0; r < size; r++ {
			if r != root {
				in = append(in, post{peer: r, data: recv[r*n : (r+1)*n]})
			}
		}
		if len(in) == 0 {
			return nil
		}
		return []stage{{posts: in}}
	}
	// Binomial tree: every node accumulates its subtree's blocks — which
	// are consecutive in virtual rank space — into tmp, then forwards the
	// whole run to its parent. The root unrotates vrank order back to
	// rank order at the end.
	v := vrank(c.rank, root, size)
	span := subtreeSpan(v, size)
	var tmp []byte
	if v == 0 && root == 0 {
		tmp = recv[:n*size] // vrank order is rank order: gather in place
	} else {
		tmp = make([]byte, n*span)
	}
	copy(tmp[:n], send)
	parent, children := binomial(v, size)
	var stages []stage
	var in []post
	for _, cv := range children {
		cs := subtreeSpan(cv, size)
		in = append(in, post{peer: realRank(cv, root, size), data: tmp[(cv-v)*n : (cv-v+cs)*n]})
	}
	if len(in) > 0 {
		st := stage{posts: in}
		if v == 0 && root != 0 {
			st.after = func() {
				for v2 := 0; v2 < size; v2++ {
					copy(recv[realRank(v2, root, size)*n:], tmp[v2*n:(v2+1)*n])
				}
			}
		}
		stages = append(stages, st)
	} else if v == 0 && root != 0 { // size == 1
		copy(recv[root*n:], tmp[:n])
	}
	if parent >= 0 {
		stages = append(stages, stage{posts: []post{{peer: realRank(parent, root, size), send: true, data: tmp}}})
	}
	return stages
}

// Gather collects every rank's send block (all the same length) into
// recv on root, ordered by rank.
func (c *Comm) Gather(root int, send, recv []byte) error { return c.IGather(root, send, recv).Wait() }

// GatherCtx is Gather bounded by ctx; on expiry the gather is cancelled.
func (c *Comm) GatherCtx(ctx context.Context, root int, send, recv []byte) error {
	return c.collCtx(ctx, c.IGather(root, send, recv))
}

// ---------------------------------------------------------------- Scatter

// IScatter starts a nonblocking scatter: rank r receives
// send[r*len(recv):(r+1)*len(recv)] (send read on root only) into recv.
func (c *Comm) IScatter(root int, send, recv []byte) *Coll {
	size := c.Size()
	n := len(recv)
	tag := c.collTag(classScatter)
	var stages []stage
	if c.rank == root {
		if len(send) < n*size {
			panic(fmt.Sprintf("mpl: Scatter send %d < %d", len(send), n*size))
		}
		copy(recv, send[root*n:(root+1)*n])
		var out []post
		for r := 0; r < size; r++ {
			if r != root {
				out = append(out, post{peer: r, send: true, data: send[r*n : (r+1)*n]})
			}
		}
		if len(out) > 0 {
			stages = []stage{{posts: out}}
		}
	} else {
		stages = []stage{{posts: []post{{peer: root, data: recv}}}}
	}
	return c.startColl(tag, stages)
}

// Scatter distributes equal blocks of send (on root) to every rank's
// recv buffer.
func (c *Comm) Scatter(root int, send, recv []byte) error { return c.IScatter(root, send, recv).Wait() }

// ScatterCtx is Scatter bounded by ctx; on expiry the scatter is
// cancelled.
func (c *Comm) ScatterCtx(ctx context.Context, root int, send, recv []byte) error {
	return c.collCtx(ctx, c.IScatter(root, send, recv))
}

// ----------------------------------------------------------------- Reduce

// IReduce starts a nonblocking reduction: every rank's send buffer is
// folded elementwise with op into recv on root (len(recv) >= len(send)
// there; recv is ignored elsewhere).
func (c *Comm) IReduce(root int, send, recv []byte, op Op) *Coll {
	c.checkReduce(send, op)
	if c.rank == root && len(recv) < len(send) {
		panic(fmt.Sprintf("mpl: Reduce recv %d < %d", len(recv), len(send)))
	}
	tag := c.collTag(classReduce)
	return c.startColl(tag, c.reduceStages(root, send, recv, op,
		c.Selector().pick(c.Size(), len(send), nil)))
}

func (c *Comm) checkReduce(send []byte, op Op) {
	if op.F == nil || op.Elem <= 0 {
		panic("mpl: reduction requires an Op with Elem > 0 and F != nil")
	}
	if len(send)%op.Elem != 0 {
		panic(fmt.Sprintf("mpl: reduction buffer %d not a multiple of element size %d", len(send), op.Elem))
	}
}

// reduceStages plans a reduction into recv at root (recv is the
// accumulator there; other ranks use private accumulators).
func (c *Comm) reduceStages(root int, send, recv []byte, op Op, algo Algo) []stage {
	size := c.Size()
	n := len(send)
	if algo == AlgoLinear {
		if c.rank != root {
			return []stage{{posts: []post{{peer: root, send: true, data: send}}}}
		}
		// Gather every contribution, then fold in rank order — the
		// sequential reference order.
		parts := make([]byte, n*size)
		var in []post
		for r := 0; r < size; r++ {
			if r != root {
				in = append(in, post{peer: r, data: parts[r*n : (r+1)*n]})
			}
		}
		combine := func() {
			copy(parts[root*n:], send)
			copy(recv[:n], parts[:n])
			for r := 1; r < size; r++ {
				op.F(recv[:n], parts[r*n:(r+1)*n])
			}
		}
		if len(in) == 0 {
			return []stage{{after: combine}}
		}
		return []stage{{posts: in, after: combine}}
	}
	// Binomial tree: receive each child subtree's partial, fold smallest
	// subtree first (which keeps the overall fold in virtual rank order),
	// then forward the accumulator to the parent.
	v := vrank(c.rank, root, size)
	var acc []byte
	if c.rank == root {
		acc = recv[:n]
	} else {
		acc = make([]byte, n)
	}
	copy(acc, send)
	parent, children := binomial(v, size)
	var stages []stage
	if len(children) > 0 {
		parts := make([]byte, n*len(children))
		var in []post
		for i, cv := range children {
			in = append(in, post{peer: realRank(cv, root, size), data: parts[i*n : (i+1)*n]})
		}
		stages = append(stages, stage{posts: in, after: func() {
			for i := len(children) - 1; i >= 0; i-- { // smallest subtree first
				op.F(acc, parts[i*n:(i+1)*n])
			}
		}})
	}
	if parent >= 0 {
		stages = append(stages, stage{posts: []post{{peer: realRank(parent, root, size), send: true, data: acc}}})
	}
	return stages
}

// Reduce folds every rank's send into recv on root with op.
func (c *Comm) Reduce(root int, send, recv []byte, op Op) error {
	return c.IReduce(root, send, recv, op).Wait()
}

// ReduceCtx is Reduce bounded by ctx; on expiry the reduction is
// cancelled.
func (c *Comm) ReduceCtx(ctx context.Context, root int, send, recv []byte, op Op) error {
	return c.collCtx(ctx, c.IReduce(root, send, recv, op))
}

// -------------------------------------------------------------- Allreduce

// IAllreduce starts a nonblocking all-reduce: every rank ends with the
// elementwise fold of all send buffers in recv (len(recv) >= len(send)).
func (c *Comm) IAllreduce(send, recv []byte, op Op) *Coll {
	c.checkReduce(send, op)
	if len(recv) < len(send) {
		panic(fmt.Sprintf("mpl: Allreduce recv %d < %d", len(recv), len(send)))
	}
	size := c.Size()
	n := len(send)
	tag := c.collTag(classAllreduce)
	algo := c.Selector().pick(size, n, allreduceCost)
	if algo == AlgoPipeline && n/op.Elem < size {
		algo = AlgoTree // too few elements to scatter one block per rank
	}
	var stages []stage
	switch algo {
	case AlgoPipeline:
		stages = c.allreduceRing(send, recv, op)
	default:
		// Reduce to rank 0, broadcast back (linear or tree throughout);
		// both halves share the operation's tag and compose into one
		// schedule.
		stages = c.reduceStages(0, send, recv, op, algo)
		stages = append(stages, c.bcastStages(0, recv[:n], algo)...)
	}
	return c.startColl(tag, stages)
}

// allreduceRing is the bandwidth-optimal large-payload schedule: a ring
// reduce-scatter (each rank ends owning one fully reduced block) followed
// by a ring allgather, 2·(size-1) rounds moving len/size bytes each.
func (c *Comm) allreduceRing(send, recv []byte, op Op) []stage {
	size := c.Size()
	n := len(send)
	copy(recv[:n], send)
	if size == 1 {
		return nil
	}
	rank := c.rank
	left, right := (rank-1+size)%size, (rank+1)%size
	rng := func(i int) (int, int) { return ringRange(n, op.Elem, size, (i%size+size)%size) }
	maxBlock := 0
	for i := 0; i < size; i++ {
		if lo, hi := rng(i); hi-lo > maxBlock {
			maxBlock = hi - lo
		}
	}
	tmp := make([]byte, maxBlock)
	var stages []stage
	for k := 0; k < size-1; k++ {
		slo, shi := rng(rank - k)
		rlo, rhi := rng(rank - k - 1)
		stages = append(stages, stage{
			posts: []post{
				{peer: right, send: true, data: recv[slo:shi]},
				{peer: left, data: tmp[:rhi-rlo]},
			},
			after: func() { op.F(recv[rlo:rhi], tmp[:rhi-rlo]) },
		})
	}
	for k := 0; k < size-1; k++ {
		slo, shi := rng(rank + 1 - k)
		rlo, rhi := rng(rank - k)
		stages = append(stages, stage{posts: []post{
			{peer: right, send: true, data: recv[slo:shi]},
			{peer: left, data: recv[rlo:rhi]},
		}})
	}
	return stages
}

// Allreduce folds every rank's send elementwise into every rank's recv.
func (c *Comm) Allreduce(send, recv []byte, op Op) error {
	return c.IAllreduce(send, recv, op).Wait()
}

// AllreduceCtx is Allreduce bounded by ctx; on expiry the operation is
// cancelled.
func (c *Comm) AllreduceCtx(ctx context.Context, send, recv []byte, op Op) error {
	return c.collCtx(ctx, c.IAllreduce(send, recv, op))
}

// AllSumInt64 returns the sum of every rank's contribution.
func (c *Comm) AllSumInt64(v int64) (int64, error) {
	var in, out [8]byte
	binary.LittleEndian.PutUint64(in[:], uint64(v))
	if err := c.Allreduce(in[:], out[:], OpSumInt64()); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(out[:])), nil
}

// -------------------------------------------------------------- Allgather

// IAllgather starts a nonblocking allgather: every rank's equal-sized
// send block lands in every rank's recv, ordered by rank.
func (c *Comm) IAllgather(send, recv []byte) *Coll {
	size := c.Size()
	n := len(send)
	if len(recv) < n*size {
		panic(fmt.Sprintf("mpl: Allgather recv %d < %d", len(recv), n*size))
	}
	tag := c.collTag(classAllgather)
	algo := c.Selector().pick(size, n*size, allgatherCost)
	var stages []stage
	if algo == AlgoPipeline {
		// Ring: size-1 rounds, each forwarding the block received last.
		copy(recv[c.rank*n:], send)
		left, right := (c.rank-1+size)%size, (c.rank+1)%size
		for k := 0; k < size-1; k++ {
			sb := ((c.rank-k)%size + size) % size
			rb := ((c.rank-k-1)%size + size) % size
			stages = append(stages, stage{posts: []post{
				{peer: right, send: true, data: recv[sb*n : (sb+1)*n]},
				{peer: left, data: recv[rb*n : (rb+1)*n]},
			}})
		}
	} else {
		// Gather to rank 0, broadcast the assembled buffer back.
		stages = c.gatherStages(0, send, recv, algo)
		stages = append(stages, c.bcastStages(0, recv[:n*size], algo)...)
	}
	return c.startColl(tag, stages)
}

// Allgather gathers every rank's equal-sized block into every rank's
// recv buffer.
func (c *Comm) Allgather(send, recv []byte) error { return c.IAllgather(send, recv).Wait() }

// AllgatherCtx is Allgather bounded by ctx; on expiry the operation is
// cancelled.
func (c *Comm) AllgatherCtx(ctx context.Context, send, recv []byte) error {
	return c.collCtx(ctx, c.IAllgather(send, recv))
}

// --------------------------------------------------------------- Alltoall

// IAlltoall starts a nonblocking all-to-all: send block r
// (send[r*n:(r+1)*n], n = len(send)/Size()) goes to rank r, and block i
// of recv receives rank i's block for this rank.
func (c *Comm) IAlltoall(send, recv []byte) *Coll {
	size := c.Size()
	if len(send)%size != 0 {
		panic(fmt.Sprintf("mpl: Alltoall send %d not divisible by %d ranks", len(send), size))
	}
	n := len(send) / size
	if len(recv) < n*size {
		panic(fmt.Sprintf("mpl: Alltoall recv %d < %d", len(recv), n*size))
	}
	tag := c.collTag(classAlltoall)
	copy(recv[c.rank*n:(c.rank+1)*n], send[c.rank*n:(c.rank+1)*n])
	var stages []stage
	if c.Selector().alltoall(size, n) == AlgoLinear {
		// One stage, every gate at once: the per-gate progress domains
		// carry all size-1 exchanges concurrently.
		var ps []post
		for r := 0; r < size; r++ {
			if r == c.rank {
				continue
			}
			ps = append(ps, post{peer: r, data: recv[r*n : (r+1)*n]})
			ps = append(ps, post{peer: r, send: true, data: send[r*n : (r+1)*n]})
		}
		if len(ps) > 0 {
			stages = []stage{{posts: ps}}
		}
	} else {
		// Pairwise exchange: size-1 rounds, partner pairs (rank+k,
		// rank-k); bounds in-flight rendezvous for large blocks.
		for k := 1; k < size; k++ {
			sp := (c.rank + k) % size
			rp := (c.rank - k + size) % size
			stages = append(stages, stage{posts: []post{
				{peer: rp, data: recv[rp*n : (rp+1)*n]},
				{peer: sp, send: true, data: send[sp*n : (sp+1)*n]},
			}})
		}
	}
	return c.startColl(tag, stages)
}

// Alltoall exchanges equal-sized blocks between every pair of ranks.
func (c *Comm) Alltoall(send, recv []byte) error { return c.IAlltoall(send, recv).Wait() }

// AlltoallCtx is Alltoall bounded by ctx; on expiry the operation is
// cancelled.
func (c *Comm) AlltoallCtx(ctx context.Context, send, recv []byte) error {
	return c.collCtx(ctx, c.IAlltoall(send, recv))
}
