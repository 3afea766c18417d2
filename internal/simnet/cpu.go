package simnet

import "newmad/internal/des"

// CPU models host processor time consumed by the communication engine:
// per-packet overheads, PIO copies, memory copies and polling. Work is
// charged to the least-loaded lane; with a single lane (the paper's
// configuration) all engine activity serializes, which is exactly why PIO
// sends on two NICs cannot overlap.
type CPU struct {
	w     *des.World
	lanes []des.Time // time at which each lane becomes free
}

// NewCPU returns a CPU with the given number of PIO-capable lanes
// (minimum 1).
func NewCPU(w *des.World, lanes int) *CPU {
	if lanes < 1 {
		lanes = 1
	}
	return &CPU{w: w, lanes: make([]des.Time, lanes)}
}

// Lanes reports the number of lanes.
func (c *CPU) Lanes() int { return len(c.lanes) }

// freeLane returns the index of the lane that frees up earliest.
func (c *CPU) freeLane() int {
	best := 0
	for i, t := range c.lanes {
		if t < c.lanes[best] {
			best = i
		}
	}
	return best
}

// Now reports the earliest time at which new engine work could start:
// the later of virtual now and the earliest free lane. It implements the
// engine's Clock interface (nanoseconds).
func (c *CPU) Now() int64 {
	t := c.lanes[c.freeLane()]
	if n := c.w.Now(); n > t {
		t = n
	}
	return int64(t)
}

// Charge consumes d nanoseconds of CPU time starting no earlier than now,
// and returns the completion time.
func (c *CPU) Charge(d int64) int64 {
	if d < 0 {
		d = 0
	}
	i := c.freeLane()
	start := c.lanes[i]
	if n := c.w.Now(); n > start {
		start = n
	}
	c.lanes[i] = start + des.Time(d)
	return int64(c.lanes[i])
}

// BusyUntil reports when all lanes are free (useful in tests).
func (c *CPU) BusyUntil() des.Time {
	max := c.lanes[0]
	for _, t := range c.lanes[1:] {
		if t > max {
			max = t
		}
	}
	return max
}
