// Package simnet models the hardware substrate of the paper's testbed:
// host CPUs, high-performance NICs with PIO and DMA send paths, a shared
// I/O bus, and the per-NIC polling cost of a user-level communication
// library's progress loop. It stands in for the Myri-10G/MX and Quadrics
// QM500/Elan hardware the paper measured (Myri10G and QsNetII below).
package simnet

import (
	"fmt"
	"time"
)

// NICParams describes one network interface model.
type NICParams struct {
	// Name labels the NIC ("myri10g", "qsnet2", ...).
	Name string
	// WireLatency is the one-way propagation plus hardware latency.
	WireLatency time.Duration
	// Bandwidth is the sustained transfer rate in bytes per second, for
	// both DMA engines and PIO copies (PIO differs in CPU usage, not in
	// achievable rate on these NICs).
	Bandwidth float64
	// PIOMax is the largest wire packet sent by programmed I/O. PIO keeps
	// the host CPU busy for the whole copy, so concurrent PIO sends on
	// different NICs serialize; larger packets use DMA, which frees the
	// CPU after DMASetup.
	PIOMax int
	// EagerMax is the largest payload sent eagerly; larger segments use
	// the rendezvous protocol. This is advertised to the engine via the
	// driver profile.
	EagerMax int
	// SendOverhead is the per-packet host cost to initiate a send
	// (library call, header build, doorbell).
	SendOverhead time.Duration
	// RecvCost is the per-packet receiver-side cost to match and deliver.
	RecvCost time.Duration
	// PollCost is the cost of polling this NIC once in the progress
	// loop. Every enabled NIC is polled on each loop iteration, which is
	// the source of the Fig. 6 multi-rail overhead.
	PollCost time.Duration
	// DMASetup is the host cost to program a DMA descriptor.
	DMASetup time.Duration
	// HeaderBytes is the wire overhead added to every packet.
	HeaderBytes int
	// Jitter adds deterministic pseudo-random noise per packet: each
	// host cost is scaled by a factor drawn uniformly from
	// [1-Jitter, 1+Jitter], and with probability Jitter²/2 the packet
	// stalls in the NIC for 10*Jitter times its nominal cost — the rare
	// straggler that gives real fabrics their heavy tail (the stall
	// holds the rail, not the CPU). The seed derives from the NIC
	// identity, so runs remain reproducible. 0 disables noise (the
	// default; the calibrated figures are generated noise-free).
	Jitter float64
}

// Validate reports the first modelling error in the parameter set. A
// zero or negative Bandwidth is the classic one: bytes/rate with rate 0
// is +Inf, which overflows int64 and schedules DES events in the past.
func (p NICParams) Validate() error {
	switch {
	case p.Bandwidth <= 0:
		return fmt.Errorf("simnet: NIC %q: Bandwidth %v must be positive", p.Name, p.Bandwidth)
	case p.WireLatency < 0:
		return fmt.Errorf("simnet: NIC %q: negative WireLatency %v", p.Name, p.WireLatency)
	case p.SendOverhead < 0 || p.RecvCost < 0 || p.PollCost < 0 || p.DMASetup < 0:
		return fmt.Errorf("simnet: NIC %q: negative per-packet cost", p.Name)
	case p.PIOMax < 0 || p.EagerMax < 0 || p.HeaderBytes < 0:
		return fmt.Errorf("simnet: NIC %q: negative size threshold", p.Name)
	case p.Jitter < 0 || p.Jitter >= 1:
		return fmt.Errorf("simnet: NIC %q: Jitter %v outside [0, 1)", p.Name, p.Jitter)
	}
	return nil
}

// HostParams describes a host model.
type HostParams struct {
	// BusBandwidth caps the aggregate rate of concurrent DMA transfers in
	// bytes per second (the I/O bus). <= 0 disables the cap.
	BusBandwidth float64
	// MemcpyBandwidth is the rate of host memory copies (segment
	// aggregation), bytes per second.
	MemcpyBandwidth float64
	// PIOLanes is the number of CPU lanes able to drive PIO transfers
	// concurrently. The paper's testbed used a single-threaded engine
	// (1); >1 models the multi-threaded future work of paper §4.
	PIOLanes int
}

const mb = 1e6 // the paper's MB/s are decimal megabytes

// Myri10G returns the Myri-10G/MX 1.2 model calibrated to the paper:
// ~2.8 us one-way latency, ~1200 MB/s peak bandwidth.
func Myri10G() NICParams {
	return NICParams{
		Name:         "myri10g",
		WireLatency:  1300 * time.Nanosecond,
		Bandwidth:    1200 * mb,
		PIOMax:       8 << 10,
		EagerMax:     32 << 10,
		SendOverhead: 700 * time.Nanosecond,
		RecvCost:     600 * time.Nanosecond,
		PollCost:     200 * time.Nanosecond,
		DMASetup:     800 * time.Nanosecond,
		HeaderBytes:  32,
	}
}

// QsNetII returns the Quadrics QM500/Elan model calibrated to the paper:
// ~1.7 us one-way latency, ~850 MB/s peak bandwidth.
func QsNetII() NICParams {
	return NICParams{
		Name:         "qsnet2",
		WireLatency:  400 * time.Nanosecond,
		Bandwidth:    850 * mb,
		PIOMax:       4 << 10,
		EagerMax:     16 << 10,
		SendOverhead: 600 * time.Nanosecond,
		RecvCost:     500 * time.Nanosecond,
		PollCost:     150 * time.Nanosecond,
		DMASetup:     600 * time.Nanosecond,
		HeaderBytes:  32,
	}
}

// GigE returns a commodity gigabit-Ethernet-class model, used as a third
// rail in extension experiments.
func GigE() NICParams {
	return NICParams{
		Name:         "gige",
		WireLatency:  25 * time.Microsecond,
		Bandwidth:    110 * mb,
		PIOMax:       1500,
		EagerMax:     64 << 10,
		SendOverhead: 3 * time.Microsecond,
		RecvCost:     3 * time.Microsecond,
		PollCost:     500 * time.Nanosecond,
		DMASetup:     1500 * time.Nanosecond,
		HeaderBytes:  58,
	}
}

// Opteron returns the host model of the paper's testbed: dual-core
// 1.8 GHz Opteron with an I/O bus good for roughly 2 GB/s of which about
// 1675 MB/s were observed usable by concurrent NIC DMA.
func Opteron() HostParams {
	return HostParams{
		BusBandwidth:    1675 * mb,
		MemcpyBandwidth: 8000 * mb,
		PIOLanes:        1,
	}
}
