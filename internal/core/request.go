package core

import "sync"

// Request is the common interface of send and receive requests.
type Request interface {
	// Done reports whether the request has completed.
	Done() bool
	// Err returns the terminal error, if any (nil while in flight and on
	// success).
	Err() error
	// OnComplete registers fn to run exactly once when the request
	// completes; if it already has, fn runs immediately.
	OnComplete(fn func())
	// Completion returns a channel closed when the request completes.
	// This is the engine's event-driven waiting primitive: Engine.Wait
	// blocks here.
	Completion() <-chan struct{}
	// Cancel abandons the request: it completes with err (ErrCanceled
	// when err is nil) instead of its normal outcome. Cancelling a send
	// frees its still-queued work and tells the peer to abandon the
	// message; cancelling a receive unhooks it from the match tables.
	// Cancel after completion is a no-op. Cancel never blocks on the
	// request finishing: completion may trail the call while in-flight
	// packets drain (wait on the request to observe the terminal state).
	Cancel(err error)
}

// reqState is the shared completion machinery.
type reqState struct {
	mu     sync.Mutex
	done   bool
	err    error
	cbs    []func()
	doneCh chan struct{} // lazily created by Completion
}

func (r *reqState) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

func (r *reqState) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *reqState) OnComplete(fn func()) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		fn()
		return
	}
	r.cbs = append(r.cbs, fn)
	r.mu.Unlock()
}

func (r *reqState) Completion() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.doneCh == nil {
		r.doneCh = make(chan struct{})
		if r.done {
			close(r.doneCh)
		}
	}
	return r.doneCh
}

// reset clears the completion machinery for pool reuse; the request must
// already be done.
func (r *reqState) reset() {
	r.done = false
	r.err = nil
	r.cbs = nil
	r.doneCh = nil
}

func (r *reqState) complete(err error) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	r.err = err
	cbs := r.cbs
	r.cbs = nil
	if r.doneCh != nil {
		close(r.doneCh)
	}
	r.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
}

// SendReq tracks an outgoing message: one or more segments submitted via
// a Packer (or Isend). It completes when every byte has been handed to a
// NIC and all carrying packets have finished sending, i.e. when the
// application may reuse its buffers.
type SendReq struct {
	reqState
	gate *Gate
	tag  uint32
	msg  uint64

	totalBytes int
	sentBytes  int
	// pendingPkts counts packets carrying this request's data that have
	// been posted but not yet completed by the driver.
	pendingPkts int
	// queuedBytes counts bytes still sitting in the backlog (not yet in
	// any posted packet).
	queuedBytes int
	// failErr, once set, dooms the request: it completes with this
	// error as soon as no packets remain in flight. Completing earlier
	// would let the application reuse buffers a driver on a surviving
	// rail is still transmitting.
	failErr error
}

// Gate returns the gate the message is being sent on.
func (s *SendReq) Gate() *Gate { return s.gate }

// Tag returns the message tag.
func (s *SendReq) Tag() uint32 { return s.tag }

// MsgID returns the per-(gate,tag) message sequence number.
func (s *SendReq) MsgID() uint64 { return s.msg }

// Cancel implements Request: the send is abandoned and completes with err
// (ErrCanceled when nil) as soon as its in-flight packets drain. Inside
// the gate's progress domain, still-queued units are removed from the
// backlog, in-flight stripped chunks are marked abandoned (their buffers
// are only released once the drivers finish with them), and the peer is
// notified via the KAbort control path so a matching receive fails
// instead of hanging. A no-op once the request has completed.
func (s *SendReq) Cancel(err error) {
	if err == nil {
		err = ErrCanceled
	}
	g := s.gate
	g.dom.Post(func() {
		if s.Done() {
			return
		}
		g.eng.failSend(g, s, err)
		g.eng.kick(g) // flush the KAbort on an idle rail
	})
}

// Recycle returns a completed send request to the engine's pool. It is
// optional — unrecycled requests are ordinary garbage — but steady-state
// loops that Recycle their requests run the send path allocation-free.
// The caller must hold the only live reference (no other goroutine still
// waiting on or inspecting the request) and must not touch the request
// afterwards. Recycling an incomplete request panics.
func (s *SendReq) Recycle() {
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if !done {
		panic("core: Recycle of incomplete send request")
	}
	s.reqState.reset()
	s.gate = nil
	s.tag = 0
	s.msg = 0
	s.totalBytes = 0
	s.sentBytes = 0
	s.pendingPkts = 0
	s.queuedBytes = 0
	s.failErr = nil
	sendReqPool.Put(s)
}

// maybeComplete finishes the request once nothing remains queued or in
// flight — with failErr if the request was doomed by a rail failure.
// Caller owns the gate's progress domain.
func (s *SendReq) maybeComplete() {
	if s.failErr != nil {
		if s.pendingPkts == 0 {
			s.complete(s.failErr)
		}
		return
	}
	if s.queuedBytes == 0 && s.pendingPkts == 0 && s.sentBytes >= s.totalBytes {
		s.complete(nil)
	}
}

// RecvReq tracks an incoming message. It completes when all MsgLen bytes
// (across all segments and rendezvous chunks) have been placed in the
// destination buffers.
type RecvReq struct {
	reqState
	gate *Gate
	tag  uint32
	msg  uint64

	// bufs is the scatter list the message lands in, in message-offset
	// order (one entry for plain Irecv). Plain receives point it at buf1
	// so posting allocates no scatter slice.
	bufs     [][]byte
	buf1     [1][]byte
	capacity int
	gotBytes int
	// msgLen is the total expected, learned from the first matching
	// header; -1 until then.
	msgLen int64
}

// Gate returns the gate the message is expected on.
func (r *RecvReq) Gate() *Gate { return r.gate }

// Tag returns the tag being matched.
func (r *RecvReq) Tag() uint32 { return r.tag }

// MsgID returns the receive-side message sequence number this request was
// matched to.
func (r *RecvReq) MsgID() uint64 { return r.msg }

// Len returns the received message length; valid once Done.
func (r *RecvReq) Len() int { return r.gotBytes }

// Buf returns the destination buffer of a plain Irecv, or the first
// scatter buffer of an Irecvv.
func (r *RecvReq) Buf() []byte {
	if len(r.bufs) == 0 {
		return nil
	}
	return r.bufs[0]
}

// Bufs returns the scatter list the message lands in.
func (r *RecvReq) Bufs() [][]byte { return r.bufs }

// Cancel implements Request: the receive completes with err (ErrCanceled
// when nil) and is unhooked from the match tables inside the gate's
// progress domain — the posted queue and any rendezvous sinks pointing at
// its buffers — so data arriving later for the message is dropped rather
// than landed in reclaimed memory. A no-op once the request has completed.
func (r *RecvReq) Cancel(err error) {
	if err == nil {
		err = ErrCanceled
	}
	g := r.gate
	g.dom.Post(func() {
		if r.Done() {
			return
		}
		g.eng.failRecv(g, r, err)
	})
}

// Recycle returns a completed receive request to the engine's pool. Same
// contract as SendReq.Recycle: sole ownership, request already done, no
// use afterwards.
func (r *RecvReq) Recycle() {
	r.mu.Lock()
	done := r.done
	r.mu.Unlock()
	if !done {
		panic("core: Recycle of incomplete receive request")
	}
	r.reqState.reset()
	r.gate = nil
	r.tag = 0
	r.msg = 0
	r.bufs = nil
	r.buf1[0] = nil
	r.capacity = 0
	r.gotBytes = 0
	r.msgLen = 0
	recvReqPool.Put(r)
}

// writeAt scatters data at the given message offset across the
// destination buffers. The caller has validated off+len(data) against
// capacity.
func (r *RecvReq) writeAt(off uint64, data []byte) {
	o := int(off)
	for _, b := range r.bufs {
		if o < len(b) {
			n := copy(b[o:], data)
			data = data[n:]
			if len(data) == 0 {
				return
			}
			o = 0
			continue
		}
		o -= len(b)
	}
	if len(data) > 0 {
		panic("core: writeAt past the scatter list")
	}
}
