package simnet

import (
	"fmt"
	"math/rand"

	"newmad/internal/des"
	"newmad/internal/fluid"
)

// Host is one simulated machine: a CPU, an I/O bus and a set of NICs.
type Host struct {
	Name string
	W    *des.World
	CPU  *CPU
	Bus  *fluid.Link

	params HostParams
	nics   []*NIC
}

// NewHost creates a host in world w.
func NewHost(w *des.World, name string, p HostParams) *Host {
	if p.MemcpyBandwidth <= 0 {
		p.MemcpyBandwidth = 8000 * mb
	}
	return &Host{
		Name:   name,
		W:      w,
		CPU:    NewCPU(w, p.PIOLanes),
		Bus:    fluid.NewLink(w, name+"/bus", p.BusBandwidth),
		params: p,
	}
}

// NewNIC installs a NIC with the given parameters on the host. Invalid
// parameters (zero/negative bandwidth, negative costs — see
// NICParams.Validate) panic: they are modelling bugs that would otherwise
// surface far away as DES events scheduled in the past.
func (h *Host) NewNIC(p NICParams) *NIC {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	n := &NIC{host: h, params: p, index: len(h.nics), bw: p.Bandwidth, jitter: p.Jitter}
	if p.Jitter > 0 {
		n.rng = rand.New(rand.NewSource(nicSeed(h.Name, p.Name, n.index)))
	}
	h.nics = append(h.nics, n)
	return n
}

// NICs returns the host's NICs in installation order.
func (h *Host) NICs() []*NIC { return h.nics }

// ChargeMemcpy consumes CPU time for copying n bytes through host memory
// (segment aggregation on the send side).
func (h *Host) ChargeMemcpy(n int) {
	if n <= 0 {
		return
	}
	h.CPU.Charge(transferNS(n, h.params.MemcpyBandwidth))
}

// ChargePollLoop consumes one progress-loop iteration: the polling cost of
// every enabled NIC on the host. This is paid on each receiver ingress, so
// merely having a second rail enabled taxes every message (paper §3.3).
func (h *Host) ChargePollLoop() {
	var total int64
	for _, n := range h.nics {
		if !n.down {
			total += n.params.PollCost.Nanoseconds()
		}
	}
	h.CPU.Charge(total)
}

// Now, Charge and Memcpy make Host satisfy the engine's Clock interface
// (core.Clock), so an engine bound to this host charges its CPU costs to
// the simulated processor.

// Now reports the host clock in nanoseconds (virtual time plus pending
// CPU work).
func (h *Host) Now() int64 { return h.CPU.Now() }

// Charge accounts d nanoseconds of host CPU work.
func (h *Host) Charge(d int64) { h.CPU.Charge(d) }

// Memcpy accounts a host memory copy of n bytes.
func (h *Host) Memcpy(n int) { h.ChargeMemcpy(n) }

// AfterFunc schedules fn after d nanoseconds of virtual time on a
// cancellable DES timer, completing the core.Clock interface so timed
// speculation (hedged sends) runs identically over simulated hardware and
// real sockets. The returned stop function cancels an unfired timer.
func (h *Host) AfterFunc(d int64, fn func()) func() {
	if d < 0 {
		d = 0
	}
	t := h.W.Schedule(des.Time(d), fn)
	return t.Stop
}

// String implements fmt.Stringer.
func (h *Host) String() string { return fmt.Sprintf("host(%s,%d nics)", h.Name, len(h.nics)) }
