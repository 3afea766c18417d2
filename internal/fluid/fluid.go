// Package fluid models bandwidth sharing on a capacity-limited link using a
// fluid-flow approximation: every active flow progresses continuously at a
// rate recomputed whenever the set of flows changes.
//
// The allocation is demand-proportional: a flow i with standalone rate
// limit L_i receives L_i * min(1, C/sum(L)) where C is the link capacity.
// Under contention each flow therefore keeps the same share of the link as
// its share of aggregate demand, which is the behaviour the NewMadeleine
// paper's adaptive-ratio stripping exploits (splitting a message across
// rails in proportion to their bandwidths makes all chunks finish
// together).
package fluid

import (
	"fmt"
	"math"
	"sort"

	"newmad/internal/des"
)

// Link is a shared capacity (bytes per second) carrying flows.
type Link struct {
	w        *des.World
	name     string
	capacity float64 // bytes/sec; <=0 means unlimited
	flows    map[*Flow]struct{}
	lastAdv  des.Time
	epoch    uint64 // invalidates scheduled completion scans
	seq      uint64
}

// Flow is one in-flight transfer on a link.
type Flow struct {
	link      *Link
	seq       uint64  // creation order, for deterministic completion order
	remaining float64 // bytes
	limit     float64 // standalone max rate, bytes/sec
	rate      float64 // current allocated rate
	done      func(at des.Time)
}

// NewLink creates a link with the given capacity in bytes per second.
// capacity <= 0 means the link never constrains flows.
func NewLink(w *des.World, name string, capacity float64) *Link {
	return &Link{
		w:        w,
		name:     name,
		capacity: capacity,
		flows:    make(map[*Flow]struct{}),
		lastAdv:  w.Now(),
	}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Capacity returns the configured capacity in bytes/sec.
func (l *Link) Capacity() float64 { return l.capacity }

// Active reports the number of in-flight flows.
func (l *Link) Active() int { return len(l.flows) }

// Start begins a transfer of size bytes limited to limit bytes/sec.
// done is invoked (as a scheduled event) when the last byte has moved.
// Zero-sized flows complete immediately.
func (l *Link) Start(size int64, limit float64, done func(at des.Time)) *Flow {
	if limit <= 0 {
		panic(fmt.Sprintf("fluid: flow limit %v", limit))
	}
	l.seq++
	f := &Flow{link: l, seq: l.seq, remaining: float64(size), limit: limit, done: done}
	if size <= 0 {
		now := l.w.Now()
		l.w.After(0, func() { done(now) })
		return f
	}
	l.advance()
	l.flows[f] = struct{}{}
	l.reallocate()
	return f
}

// Cancel aborts a flow; done is not called. Returns the bytes that were
// still unsent. Cancelling a finished flow returns 0.
func (l *Link) Cancel(f *Flow) int64 {
	if _, ok := l.flows[f]; !ok {
		return 0
	}
	l.advance()
	delete(l.flows, f)
	rem := int64(math.Ceil(f.remaining))
	l.reallocate()
	return rem
}

// Remaining reports how many bytes the flow still has to transfer, as of
// the link's last advancement.
func (f *Flow) Remaining() float64 { return f.remaining }

// advance moves all flow progress forward to the current virtual time.
func (l *Link) advance() {
	now := l.w.Now()
	dt := float64(now-l.lastAdv) / 1e9
	l.lastAdv = now
	if dt <= 0 {
		return
	}
	for f := range l.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reallocate recomputes rates and schedules the next completion scan.
// Callers must advance() first.
func (l *Link) reallocate() {
	l.epoch++
	if len(l.flows) == 0 {
		return
	}
	var demand float64
	for f := range l.flows {
		demand += f.limit
	}
	scale := 1.0
	if l.capacity > 0 && demand > l.capacity {
		scale = l.capacity / demand
	}
	next := math.Inf(1)
	for f := range l.flows {
		f.rate = f.limit * scale
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	epoch := l.epoch
	delay := des.Time(math.Ceil(next * 1e9))
	if delay < 0 {
		delay = 0
	}
	l.w.After(delay, func() { l.scan(epoch) })
}

// scan completes any flows that have drained. Stale scans (the flow set
// changed since scheduling) are ignored; reallocate has already scheduled
// a fresh one.
func (l *Link) scan(epoch uint64) {
	if epoch != l.epoch {
		return
	}
	l.advance()
	now := l.w.Now()
	var finished []*Flow
	for f := range l.flows {
		// One nanosecond of rounding slack: completions are scheduled at
		// ceil(remaining/rate) so remaining may be a hair above zero.
		if f.remaining <= f.rate*1e-9+1e-6 {
			finished = append(finished, f)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
	for _, f := range finished {
		delete(l.flows, f)
		f.remaining = 0
		f.rate = 0
		done := f.done
		l.w.After(0, func() { done(now) })
	}
	l.reallocate()
}
