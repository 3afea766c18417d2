// Package trace collects engine trace events for diagnostics, tests and
// ablation analysis: which rail carried what, how much was aggregated,
// when rendezvous were granted.
package trace

import (
	"sync"

	"newmad/internal/core"
)

// Collector accumulates trace events. The zero value is ready to use.
type Collector struct {
	mu  sync.Mutex
	evs []core.TraceEvent
	max int
	// next is the ring slot the next event overwrites once evs holds max
	// events; it is also the oldest event's slot.
	next int
}

// New returns a collector that keeps the last max events in a fixed ring
// (0 = unbounded).
func New(max int) *Collector { return &Collector{max: max} }

// Hook returns the function to install as core.Config.Trace.
func (c *Collector) Hook() func(core.TraceEvent) {
	return func(ev core.TraceEvent) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.max > 0 && len(c.evs) == c.max {
			c.evs[c.next] = ev
			c.next = (c.next + 1) % c.max
			return
		}
		c.evs = append(c.evs, ev)
	}
}

// Events returns a snapshot of collected events, oldest first.
func (c *Collector) Events() []core.TraceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.TraceEvent, 0, len(c.evs))
	out = append(out, c.evs[c.next:]...)
	return append(out, c.evs[:c.next]...)
}

// Reset discards collected events.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evs = c.evs[:0]
	c.next = 0
}

// BytesOnRail sums posted payload bytes per rail.
func (c *Collector) BytesOnRail(rail int) int {
	n := 0
	for _, ev := range c.Events() {
		if ev.Ev == "post" && ev.Rail == rail {
			n += ev.Len
		}
	}
	return n
}

// MaxAgg returns the largest aggregation count observed in posted
// packets.
func (c *Collector) MaxAgg() int {
	max := 0
	for _, ev := range c.Events() {
		if ev.Ev == "post" && ev.Agg > max {
			max = ev.Agg
		}
	}
	return max
}
