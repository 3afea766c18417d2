package core

import "time"

// Clock abstracts time and host-CPU cost accounting so the engine runs
// unchanged over simulated hardware (virtual time, costs charged to a
// model CPU) and over real sockets (wall clock, costs are real).
type Clock interface {
	// Now returns the current time in nanoseconds. Under simulation this
	// includes any CPU work already charged but not yet elapsed.
	Now() int64
	// Charge accounts d nanoseconds of host CPU work.
	Charge(d int64)
	// Memcpy accounts a host memory copy of n bytes (used when a strategy
	// aggregates segments into a contiguous packet).
	Memcpy(n int)
	// AfterFunc runs fn after d nanoseconds of this clock's time (wall
	// time, or virtual time under simulation); timed speculation such as
	// hedged sends uses it. fn may run on any goroutine, so it must route
	// engine work through Gate.Exec. The returned stop cancels a timer
	// that has not fired yet; calling it after the fire is a no-op.
	AfterFunc(d int64, fn func()) (stop func())
}

// realClock is the wall-clock Clock: costs are incurred for real, so the
// accounting methods are no-ops.
type realClock struct{ start time.Time }

// NewRealClock returns a Clock backed by the monotonic wall clock.
func NewRealClock() Clock { return &realClock{start: time.Now()} }

func (c *realClock) Now() int64   { return time.Since(c.start).Nanoseconds() }
func (c *realClock) Charge(int64) {}
func (c *realClock) Memcpy(int)   {}

func (c *realClock) AfterFunc(d int64, fn func()) func() {
	t := time.AfterFunc(time.Duration(d), fn)
	return func() { t.Stop() }
}
