package mpl

import (
	"context"
	"sync"

	"newmad/internal/core"
)

// This file is the nonblocking collective engine. A collective is compiled
// into a schedule of stages; each stage's point-to-point posts are issued
// concurrently (possibly on many gates, so the per-gate progress domains
// work in parallel), and the next stage is issued from whichever goroutine
// completes the last request of the current one. No goroutine is ever
// parked and no extra goroutines are spawned, so the same engine runs
// unchanged under the discrete-event simulation (where completions fire in
// kernel event context) and on real rails (where they fire on driver or
// waiter goroutines).
//
// All follow-up posts go through core.Gate.Exec, the non-blocking
// domain-entry path: completion callbacks run while owning the completing
// gate's progress domain, and acquiring another gate's domain lock from
// there could deadlock two callbacks taking two domains in opposite
// orders.

// post describes one point-to-point operation within a stage.
//
// A receive may carry a follow-up send, fwd, which the engine issues
// once that receive and every earlier receive of the stage have
// completed: follow-ups leave in post order, whatever order the rails
// deliver in. That order is what keeps forwarded chunks matched, since
// the n-th receive on a tag takes the n-th send on it. A stage's direct
// sends and its follow-ups must not share a peer, or their relative
// order on that gate would be undefined.
type post struct {
	peer int
	send bool
	data []byte // payload to send, or the receive destination
	fwd  *post  // on a receive: the send issued when it completes
}

// stage is one dependency level of a collective schedule: its posts are
// issued concurrently, the stage completes when all of them have, and
// after (optional) then runs — the combine/copy hook — before the next
// stage is issued. A stage with no posts is a pure compute step.
type stage struct {
	posts []post
	after func()
}

// Coll is an in-flight collective operation. It implements core.Request,
// so it can be waited on exactly like a point-to-point request (Engine.Wait,
// bench.WaitReqs, or a Comm's Waiter); Wait and Test are the conventional
// MPI-style conveniences on top.
type Coll struct {
	comm *Comm
	tag  uint32

	mu      sync.Mutex
	stages  []stage
	idx     int
	pending int
	afterFn func()
	// reqs are the point-to-point requests of the in-flight stage, kept
	// so Cancel can abort them on their gates; cleared at each stage
	// boundary.
	reqs []core.Request
	// The in-flight stage's follow-up state: its posts, which of its
	// receives have completed (nil when no post has a follow-up), the
	// cursor of the next post whose follow-up may leave, and whether a
	// goroutine is issuing follow-ups right now.
	posts      []post
	arrived    []bool
	cursor     int
	forwarding bool
	done       bool
	err        error
	cbs        []func()
	doneCh     chan struct{}
}

// startColl launches the schedule and returns its handle.
func (c *Comm) startColl(tag uint32, stages []stage) *Coll {
	co := &Coll{comm: c, tag: tag, stages: stages}
	co.schedule()
	return co
}

// schedule issues stages until one has requests still in flight (the last
// completion callback re-enters here) or the schedule is exhausted. Called
// without co.mu; may run on an application goroutine or from a completion
// callback that owns a gate domain — it only submits through Exec, which
// never blocks.
func (co *Coll) schedule() {
	for {
		co.mu.Lock()
		if co.done {
			co.mu.Unlock()
			return
		}
		if co.idx >= len(co.stages) {
			co.mu.Unlock()
			co.finish(nil)
			return
		}
		st := co.stages[co.idx]
		co.idx++
		if len(st.posts) == 0 {
			co.mu.Unlock()
			if st.after != nil {
				st.after()
			}
			continue
		}
		// The +1 is a posting hold: requests posted below may complete
		// synchronously (in-memory rails), and the hold keeps the stage
		// from advancing out from under the posting loop. Each
		// follow-up send holds one credit more.
		co.pending = len(st.posts) + 1
		fwds := 0
		for _, p := range st.posts {
			if p.fwd != nil {
				fwds++
			}
		}
		co.pending += fwds
		co.afterFn = st.after
		co.reqs = co.reqs[:0]
		co.posts, co.arrived, co.cursor = st.posts, nil, 0
		if fwds > 0 {
			co.arrived = make([]bool, len(st.posts))
		}
		co.mu.Unlock()
		for i, p := range st.posts {
			done := co.reqDone
			if fwds > 0 && !p.send {
				done = func(req core.Request) { co.arrive(i, req) }
			}
			co.issue(p, done)
		}
		if !co.release() {
			return
		}
	}
}

// issue posts p on its peer's gate through the non-blocking Exec path
// and routes the request's completion to done.
func (co *Coll) issue(p post, done func(core.Request)) {
	co.comm.gate(p.peer).Exec(func(ops core.Ops) {
		if co.Done() {
			// A sibling post of this stage already failed the
			// collective (e.g. a dead gate completing its send
			// synchronously): don't orphan requests on the healthy
			// gates.
			return
		}
		var req core.Request
		if p.send {
			req = ops.Isend(co.tag, p.data)
		} else {
			req = ops.Irecv(co.tag, p.data)
		}
		co.track(req)
		req.OnComplete(func() { done(req) })
	})
}

// arrive is the completion callback of a receive in a stage with
// follow-ups: it marks post i complete, issues whatever follow-ups that
// unblocks, then drops the receive's own credit.
func (co *Coll) arrive(i int, req core.Request) {
	if err := req.Err(); err != nil {
		co.finish(err)
		return
	}
	co.mu.Lock()
	co.arrived[i] = true
	co.forward()
	co.reqDone(req)
}

// forward advances the follow-up cursor past every completed receive
// (and every send) and issues the follow-ups it passes, in post order.
// Called with co.mu held; returns with it released. One goroutine
// forwards at a time: a completion that finds another goroutine
// forwarding only marks its receive, and that goroutine picks it up
// before it stops, so the Exec calls, and hence the sends on each gate,
// keep post order. A follow-up may complete inside its Exec and finish
// the stage; the loop then continues on the next stage's state, or stops
// when that stage has no follow-ups.
func (co *Coll) forward() {
	if co.forwarding {
		co.mu.Unlock()
		return
	}
	co.forwarding = true
	for !co.done && co.arrived != nil && co.cursor < len(co.posts) {
		p := co.posts[co.cursor]
		if !p.send && !co.arrived[co.cursor] {
			break
		}
		co.cursor++
		if p.fwd != nil {
			co.mu.Unlock()
			co.issue(*p.fwd, co.reqDone)
			co.mu.Lock()
		}
	}
	co.forwarding = false
	co.mu.Unlock()
}

// release drops one pending credit. When the stage's count reaches zero it
// runs the after hook and reports true: the caller advances the schedule.
func (co *Coll) release() bool {
	co.mu.Lock()
	if co.done {
		co.mu.Unlock()
		return false
	}
	co.pending--
	if co.pending > 0 {
		co.mu.Unlock()
		return false
	}
	after := co.afterFn
	co.afterFn = nil
	co.mu.Unlock()
	if after != nil {
		after()
	}
	return true
}

// track records a just-posted request for Cancel. If the collective was
// cancelled between the Done check and the post (the Exec may have been
// deferred), the request is aborted right here instead of being orphaned
// on its gate.
func (co *Coll) track(req core.Request) {
	co.mu.Lock()
	if co.done {
		err := co.err
		co.mu.Unlock()
		if err != nil {
			req.Cancel(err)
		}
		return
	}
	co.reqs = append(co.reqs, req)
	co.mu.Unlock()
}

// reqDone is the completion callback of every request the schedule posts.
func (co *Coll) reqDone(req core.Request) {
	if err := req.Err(); err != nil {
		co.finish(err)
		return
	}
	if co.release() {
		co.schedule()
	}
}

// finish completes the collective. Idempotent; late completions of an
// errored stage find done set and stand down, and unposted siblings of
// the failing request are skipped. On an error the in-flight stage's
// posted requests are cancelled on their gates, so their buffers are
// released and their peers see aborts instead of hanging on traffic that
// will never come.
func (co *Coll) finish(err error) {
	co.mu.Lock()
	if co.done {
		co.mu.Unlock()
		return
	}
	co.done = true
	co.err = err
	cbs := co.cbs
	co.cbs = nil
	var reqs []core.Request
	if err != nil {
		reqs = co.reqs
		co.reqs = nil
	}
	if co.doneCh != nil {
		close(co.doneCh)
	}
	co.mu.Unlock()
	for _, r := range reqs {
		// Cancel enters the gate's domain via its non-blocking Post
		// path, so this is safe from completion-callback context; done
		// requests are no-ops.
		r.Cancel(err)
	}
	for _, fn := range cbs {
		fn()
	}
}

// Cancel implements core.Request: the collective completes with err
// (core.ErrCanceled when nil), its remaining stage schedule is torn down
// — no further stages are issued — and the in-flight stage's requests
// are aborted on their gates. The operation's reserved tag stays
// consumed, so the communicator's collective sequence space is intact:
// subsequent collectives match on fresh tags and never cross-match
// straggler traffic of the cancelled operation.
func (co *Coll) Cancel(err error) {
	if err == nil {
		err = core.ErrCanceled
	}
	co.finish(err)
}

// Done implements core.Request.
func (co *Coll) Done() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.done
}

// Err implements core.Request: the first request error of the schedule,
// nil while in flight and on success.
func (co *Coll) Err() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}

// OnComplete implements core.Request.
func (co *Coll) OnComplete(fn func()) {
	co.mu.Lock()
	if co.done {
		co.mu.Unlock()
		fn()
		return
	}
	co.cbs = append(co.cbs, fn)
	co.mu.Unlock()
}

// Completion implements core.Request.
func (co *Coll) Completion() <-chan struct{} {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.doneCh == nil {
		co.doneCh = make(chan struct{})
		if co.done {
			close(co.doneCh)
		}
	}
	return co.doneCh
}

// Wait blocks (through the communicator's waiter, so it parks in virtual
// time under simulation) until the collective completes and returns its
// error.
func (co *Coll) Wait() error {
	return co.WaitCtx(context.Background())
}

// WaitCtx waits like Wait but gives up when ctx is done, returning
// ctx.Err() and leaving the collective outstanding — call Cancel to tear
// the schedule down, or keep the handle and wait again. The blocking
// *Ctx collectives on Comm cancel on expiry automatically.
func (co *Coll) WaitCtx(ctx context.Context) error {
	if err := co.comm.wait(ctx, co); err != nil {
		return err
	}
	return co.Err()
}

// collCtx runs a blocking collective bounded by ctx: on ctx expiry the
// collective is cancelled — remaining stages torn down, in-flight
// requests aborted on their gates — and the ctx error is returned.
func (c *Comm) collCtx(ctx context.Context, co *Coll) error {
	err := co.WaitCtx(ctx)
	if err != nil && !co.Done() {
		co.Cancel(err)
	}
	return err
}

// Test reports whether the collective has completed. Progress is made by
// the completing driver events themselves; under the discrete-event
// simulation a spinning Test never advances virtual time, so simulated
// processes should Wait (or sleep between Tests) instead.
func (co *Coll) Test() bool { return co.Done() }

var _ core.Request = (*Coll)(nil)
