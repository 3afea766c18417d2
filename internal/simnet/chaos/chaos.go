// Package chaos schedules fault injection on the simulated platform:
// link flaps, bandwidth degradation, packet loss, jitter bursts and
// rack partitions, armed as cancellable DES timers so every run is
// deterministic in virtual time and a schedule can be torn down early.
//
// A Schedule is declarative — a named list of faults with virtual-time
// offsets and optional durations — and is inert until Arm wires it into
// a world. Faults that target a link operate on BOTH endpoint NICs:
// downing only one side silently strands packets the sender was already
// credited for (its local SendComplete fired), which is exactly the
// failure mode the simdrv drop hooks and the engine's RailDown path
// exist to surface.
package chaos

import (
	"fmt"
	"time"

	"newmad/internal/des"
	"newmad/internal/simnet"
)

// Fault is one scheduled perturbation. Apply fires At after arming;
// when Dur > 0 and Revert is non-nil, Revert fires Dur later.
type Fault struct {
	// Name labels the fault in traces and errors ("flap myri", …).
	Name string
	// At is the virtual-time offset from Arm at which Apply fires.
	At time.Duration
	// Dur is how long the fault holds; 0 means permanent (no Revert).
	Dur time.Duration
	// Apply injects the fault. Revert undoes it (may be nil).
	Apply  func()
	Revert func()
}

// Schedule is a named, ordered set of faults.
type Schedule struct {
	name   string
	faults []Fault
}

// NewSchedule returns an empty schedule.
func NewSchedule(name string) *Schedule { return &Schedule{name: name} }

// Name returns the schedule's label.
func (s *Schedule) Name() string { return s.name }

// Add appends a fault, validating its timing.
func (s *Schedule) Add(f Fault) *Schedule {
	if f.At < 0 || f.Dur < 0 {
		panic(fmt.Sprintf("chaos: fault %q with negative timing (at %v for %v)", f.Name, f.At, f.Dur))
	}
	if f.Apply == nil {
		panic(fmt.Sprintf("chaos: fault %q has no Apply", f.Name))
	}
	s.faults = append(s.faults, f)
	return s
}

// FlapLink takes both endpoints of a link down at at and brings them
// back dur later. Note that engines treat a rail that failed as failed
// for good (the simdrv RailDown latch): the flap's recovery restores
// the simulated hardware, not the engine's use of it — new gates wired
// after the flap see a healthy link.
func (s *Schedule) FlapLink(at, dur time.Duration, a, b *simnet.NIC) *Schedule {
	return s.Add(Fault{
		Name: fmt.Sprintf("flap %s/%s", a.Host().Name, a.Params().Name),
		At:   at, Dur: dur,
		Apply:  func() { a.SetDown(true); b.SetDown(true) },
		Revert: func() { a.SetDown(false); b.SetDown(false) },
	})
}

// DownLink takes both endpoints of a link down permanently.
func (s *Schedule) DownLink(at time.Duration, a, b *simnet.NIC) *Schedule {
	return s.Add(Fault{
		Name:  fmt.Sprintf("down %s/%s", a.Host().Name, a.Params().Name),
		At:    at,
		Apply: func() { a.SetDown(true); b.SetDown(true) },
	})
}

// DegradeLink clamps both endpoints of a link to frac of their hardware
// rate for dur (frac 0.1 = 10% of nominal; the NIC floors the result at
// simnet.MinBandwidth). The previous effective rates are restored.
func (s *Schedule) DegradeLink(at, dur time.Duration, frac float64, a, b *simnet.NIC) *Schedule {
	var prevA, prevB float64
	return s.Add(Fault{
		Name: fmt.Sprintf("degrade %s/%s to %.0f%%", a.Host().Name, a.Params().Name, frac*100),
		At:   at, Dur: dur,
		Apply: func() {
			prevA, prevB = a.Bandwidth(), b.Bandwidth()
			a.SetBandwidth(a.Params().Bandwidth * frac)
			b.SetBandwidth(b.Params().Bandwidth * frac)
		},
		Revert: func() { a.SetBandwidth(prevA); b.SetBandwidth(prevB) },
	})
}

// DropOnLink injects per-packet arrival loss with probability p on both
// endpoints for dur, then restores the previous loss rates.
func (s *Schedule) DropOnLink(at, dur time.Duration, p float64, a, b *simnet.NIC) *Schedule {
	var prevA, prevB float64
	return s.Add(Fault{
		Name: fmt.Sprintf("drop %.1f%% on %s/%s", p*100, a.Host().Name, a.Params().Name),
		At:   at, Dur: dur,
		Apply: func() {
			prevA, prevB = a.DropProb(), b.DropProb()
			a.SetDropProb(p)
			b.SetDropProb(p)
		},
		Revert: func() { a.SetDropProb(prevA); b.SetDropProb(prevB) },
	})
}

// JitterLink injects per-packet host-cost noise factor j on both
// endpoints for dur, then restores the previous factors.
func (s *Schedule) JitterLink(at, dur time.Duration, j float64, a, b *simnet.NIC) *Schedule {
	var prevA, prevB float64
	return s.Add(Fault{
		Name: fmt.Sprintf("jitter %.0f%% on %s/%s", j*100, a.Host().Name, a.Params().Name),
		At:   at, Dur: dur,
		Apply: func() {
			prevA, prevB = a.Jitter(), b.Jitter()
			a.SetJitter(j)
			b.SetJitter(j)
		},
		Revert: func() { a.SetJitter(prevA); b.SetJitter(prevB) },
	})
}

// Partition takes every given NIC down at at and restores them dur
// later. The NIC set should cover both endpoints of every severed link
// (topo.CutNICs does): a one-sided partition loses packets silently.
func (s *Schedule) Partition(at, dur time.Duration, nics ...*simnet.NIC) *Schedule {
	if len(nics) == 0 {
		panic("chaos: Partition with no NICs")
	}
	set := append([]*simnet.NIC(nil), nics...)
	return s.Add(Fault{
		Name: fmt.Sprintf("partition (%d nics)", len(set)),
		At:   at, Dur: dur,
		Apply: func() {
			for _, n := range set {
				n.SetDown(true)
			}
		},
		Revert: func() {
			for _, n := range set {
				n.SetDown(false)
			}
		},
	})
}

// Armed is a schedule wired into a world; Stop cancels every fault (and
// revert) that has not fired yet.
type Armed struct {
	timers []*des.Timer
}

// Arm schedules every fault on cancellable DES timers, offsets relative
// to the world's current virtual time.
func (s *Schedule) Arm(w *des.World) *Armed {
	ar := &Armed{}
	for i := range s.faults {
		f := s.faults[i]
		ar.timers = append(ar.timers, w.Schedule(des.FromDuration(f.At), func() {
			f.Apply()
			if f.Dur > 0 && f.Revert != nil {
				// The revert timer exists only once the fault fired, so a
				// Stop before At cancels the whole fault atomically.
				ar.timers = append(ar.timers, w.Schedule(des.FromDuration(f.Dur), f.Revert))
			}
		}))
	}
	return ar
}

// Stop cancels every pending timer of the armed schedule. Faults that
// already fired are not reverted early; their revert timers (if any)
// are cancelled, freezing the platform in its current state.
func (a *Armed) Stop() {
	for _, t := range a.timers {
		t.Stop()
	}
}
