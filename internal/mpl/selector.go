package mpl

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"newmad/internal/core"
)

// Algo names a collective algorithm family.
type Algo uint8

// Collective algorithm families. Not every operation implements every
// family; the per-operation planners map an inapplicable choice to the
// nearest applicable one (e.g. a forced pipeline Barrier runs the tree).
const (
	// AlgoAuto lets the selector choose per message size and rank count.
	AlgoAuto Algo = iota
	// AlgoLinear is the flat algorithm rooted at one rank: a single
	// fan-in/fan-out stage. Cheapest for two ranks and the baseline the
	// tree algorithms are measured against.
	AlgoLinear
	// AlgoTree is the log-depth family: binomial trees for rooted
	// operations, dissemination rounds for Barrier.
	AlgoTree
	// AlgoPipeline is the bandwidth-bound family: chunked chain for
	// Bcast, ring reduce-scatter + allgather for Allreduce, ring for
	// Allgather, pairwise exchange rounds for Alltoall.
	AlgoPipeline
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoLinear:
		return "linear"
	case AlgoTree:
		return "tree"
	case AlgoPipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

// ParseAlgo parses an algorithm name ("auto", "linear", "tree",
// "pipeline").
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "auto", "":
		return AlgoAuto, nil
	case "linear":
		return AlgoLinear, nil
	case "tree":
		return AlgoTree, nil
	case "pipeline":
		return AlgoPipeline, nil
	default:
		return AlgoAuto, fmt.Errorf("mpl: unknown collective algorithm %q (have auto, linear, tree, pipeline)", s)
	}
}

// Selector chooses the algorithm for each collective from the message
// size and rank count:
//
//   - latency-bound (<= SmallMax, at most FanoutMaxRanks ranks): linear.
//     Posting a send costs far less than a network hop on the modeled
//     fabrics, so a root fanning out N-1 cheap sends beats log2(N) full
//     round trips.
//   - past that: the binomial tree, or the operation's pipelined variant
//     when its modeled time is lower.
//
// The model is α-β (Thakur, Rabenseifner & Gropp, "Optimization of
// Collective Communication Operations in MPICH", IJHPCA 2005): α is the
// gate's smallest rail latency, 1/β its summed rail bandwidth. For p
// ranks and n bytes it prices
//
//	Allreduce  tree 2⌈log p⌉(α+nβ)  vs  ring 2(p−1)(α+nβ/p)
//	Bcast      tree ⌈log p⌉(α+nβ)   vs  chain (p−2+n/Chunk)(α+Chunk·β)
//	Allgather  gather+bcast trees   vs  ring (p−1)(α+nβ/p)
//
// Gather and Reduce have no pipelined variant and use the tree. Seed the
// model from the rails with SelectorFromProfiles (declared or sampled
// profiles; Comm.SeedSelector) or SelectorFromRails (online estimates);
// DefaultSelector assumes a 2 µs, 2.048 GB/s gate. The model is
// unexported: a Selector built as a literal prices with the default
// model.
type Selector struct {
	// Force, when not AlgoAuto, overrides the choice for every
	// operation (mapped to the nearest applicable family).
	Force Algo
	// SmallMax is the largest total payload considered latency-bound.
	SmallMax int
	// Chunk is the pipeline chunk size for the chained Bcast. Seeded
	// selectors cap it at the rails' smallest EagerMax, so a chain chunk
	// never pays a rendezvous round trip. Every chunk is posted at once
	// and relays forward each on arrival, so Chunk sets the per-hop
	// latency of the chain, not how many chunks a link carries at once.
	Chunk int
	// FanoutMaxRanks bounds the linear small-message regime: beyond this
	// many ranks the O(N) fan-out overtakes log2(N) hops even for tiny
	// payloads (0 uses the default of 32).
	FanoutMaxRanks int
	// Epoch tags the deterministic re-fit generation that produced this
	// selector (0 for seeds and static defaults). Adaptive selection
	// bumps it at every re-fit; it participates in the digest, so ranks
	// whose selectors diverged — different models or re-fits at
	// different times — fail the uniformity check loudly.
	Epoch uint32

	// lat and bw are the α-β model the tree/pipeline choice prices with:
	// the gate's smallest rail latency and summed bandwidth (bytes/s).
	// Zero means the default model.
	lat time.Duration
	bw  float64
}

// The default α-β model: roughly one of the paper's two-rail gates.
// Its bandwidth-delay product is 4 KiB, which puts DefaultSelector's
// SmallMax at 16 KiB.
const (
	defaultLatency   = 2 * time.Microsecond
	defaultBandwidth = 2.048e9
)

// model returns the selector's α-β model, the default one when unset.
func (s Selector) model() (time.Duration, float64) {
	if s.lat <= 0 || s.bw <= 0 {
		return defaultLatency, defaultBandwidth
	}
	return s.lat, s.bw
}

// Digest hashes the selector's algorithm-relevant state (FNV-1a over the
// thresholds, the α-β model, force override and epoch). Equal digests
// mean two ranks will make identical algorithm choices for every (ranks,
// bytes) input; Comm.VerifySelector exchanges digests to enforce that
// cross-rank.
func (s Selector) Digest() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	lat, bw := s.model()
	mix(uint64(s.Force))
	mix(uint64(s.SmallMax))
	mix(uint64(s.Chunk))
	mix(uint64(s.FanoutMaxRanks))
	mix(uint64(s.Epoch))
	mix(uint64(lat))
	mix(math.Float64bits(bw))
	return h
}

// quantized rounds SmallMax and the model to the nearest power of two
// and Chunk down to one (rounding down keeps the EagerMax cap). The
// adaptive re-fit path runs it so that successive fits from drifting
// estimates don't flap between nearby choices.
func (s Selector) quantized() Selector {
	s.SmallMax = roundPow2(s.SmallMax)
	if s.Chunk > 0 {
		s.Chunk = 1 << (bits.Len(uint(s.Chunk)) - 1)
	}
	s.lat = time.Duration(roundPow2(int(s.lat)))
	s.bw = float64(roundPow2(int(s.bw)))
	return s
}

// roundPow2 rounds v to the nearest power of two (ties upward).
func roundPow2(v int) int {
	if v <= 1 {
		return 1
	}
	n := bits.Len(uint(v - 1)) // ceil(log2 v)
	hi := 1 << n
	lo := hi >> 1
	if v-lo < hi-v {
		return lo
	}
	return hi
}

// fitBytes is the length of the adaptive re-fit broadcast (see
// Comm.refit): SmallMax, Chunk, FanoutMaxRanks, latency (ns) and
// bandwidth (float64 bits), 8 bytes each.
const fitBytes = 40

// putFit encodes the selector's fitted state into buf (fitBytes long).
func (s Selector) putFit(buf []byte) {
	lat, bw := s.model()
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.SmallMax))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.Chunk))
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.FanoutMaxRanks))
	binary.LittleEndian.PutUint64(buf[24:], uint64(lat))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(bw))
}

// fitFrom decodes a putFit encoding.
func fitFrom(buf []byte) Selector {
	return Selector{
		SmallMax:       int(binary.LittleEndian.Uint64(buf[0:])),
		Chunk:          int(binary.LittleEndian.Uint64(buf[8:])),
		FanoutMaxRanks: int(binary.LittleEndian.Uint64(buf[16:])),
		lat:            time.Duration(binary.LittleEndian.Uint64(buf[24:])),
		bw:             math.Float64frombits(binary.LittleEndian.Uint64(buf[32:])),
	}
}

// DefaultSelector returns the selector of the default α-β model: sane
// for the paper's high-speed interconnects and conservative for TCP.
func DefaultSelector() Selector {
	return selectorFromModel(0, 0, 0)
}

// SelectorFromProfiles derives a selector from rail profiles (declared by
// drivers or installed by init-time sampling): the rails of one gate act
// in parallel, so bandwidths add, the smallest latency wins, and Chunk
// is capped at the smallest EagerMax.
func SelectorFromProfiles(profs []core.Profile) Selector {
	var m railModel
	for _, p := range profs {
		m.add(p.Latency, p.Bandwidth, p.EagerMax)
	}
	return selectorFromModel(m.lat, m.bw, m.eager)
}

// SelectorFromRails derives a selector from the rails' online
// estimators: the rails act in parallel, so estimated bandwidths add and
// the smallest estimated latency wins; Chunk is capped at the smallest
// live rail's EagerMax. Rails without observations answer from their
// profile priors, so the result degrades to SelectorFromProfiles on an
// idle platform. The result is quantized to powers of two so that
// successive fits from drifting estimates don't flap between nearby
// values (cross-rank agreement is not quantization's job: the adaptive
// re-fit distributes rank 0's fit, see Comm.SetAdaptive).
func SelectorFromRails(rails []*core.Rail) Selector {
	var m railModel
	for _, r := range rails {
		if r.Down() {
			continue
		}
		p := r.Profile()
		if est := r.Estimator(); est != nil {
			m.add(est.Latency(), est.Bandwidth(), p.EagerMax)
		} else {
			m.add(p.Latency, p.Bandwidth, p.EagerMax)
		}
	}
	return selectorFromModel(m.lat, m.bw, m.eager).quantized()
}

// railModel folds the rails of one gate into the selector's model: the
// rails act in parallel, so bandwidths add, and the smallest latency and
// eager limit win.
type railModel struct {
	lat   time.Duration
	bw    float64
	eager int
}

func (m *railModel) add(lat time.Duration, bw float64, eager int) {
	m.bw += bw
	if m.lat == 0 || (lat > 0 && lat < m.lat) {
		m.lat = lat
	}
	if m.eager == 0 || (eager > 0 && eager < m.eager) {
		m.eager = eager
	}
}

// selectorFromModel builds the selector of an α-β model (the default
// model when lat or bw is not positive): the linear regime and the chain
// chunk scale with the bandwidth-delay product, clamped to sane bounds,
// and Chunk is capped at eager when positive.
func selectorFromModel(lat time.Duration, bw float64, eager int) Selector {
	if lat <= 0 || bw <= 0 {
		lat, bw = defaultLatency, defaultBandwidth
	}
	bdp := int(bw * lat.Seconds()) // bytes in flight per hop
	s := Selector{
		SmallMax:       clamp(4*bdp, 4<<10, 256<<10),
		Chunk:          clamp(8*bdp, 16<<10, 1<<20),
		FanoutMaxRanks: 32,
		lat:            lat,
		bw:             bw,
	}
	if eager > 0 && s.Chunk > eager {
		s.Chunk = eager
	}
	return s
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// chunk returns the chain Bcast's chunk size.
func (s Selector) chunk() int {
	if s.Chunk > 0 {
		return s.Chunk
	}
	return DefaultSelector().Chunk
}

// costFn prices an operation's tree and pipelined schedules for ranks
// ranks and bytes total payload, in nanoseconds.
type costFn func(s Selector, ranks, bytes int) (tree, pipe float64)

// alphaBeta returns the model's per-message latency α (ns) and per-byte
// time β (ns/byte), and ⌈log2 ranks⌉.
func (s Selector) alphaBeta(ranks int) (a, b, logp float64) {
	lat, bw := s.model()
	return float64(lat), 1e9 / bw, float64(bits.Len(uint(ranks - 1)))
}

// allreduceCost: reduce + bcast binomial trees against the ring
// reduce-scatter + allgather.
func allreduceCost(s Selector, ranks, bytes int) (tree, pipe float64) {
	a, b, logp := s.alphaBeta(ranks)
	p, n := float64(ranks), float64(bytes)
	return 2 * logp * (a + n*b), 2 * (p - 1) * (a + n*b/p)
}

// bcastCost: the binomial tree against the chunked chain, whose chunk
// count is taken fractionally so the cost stays linear in n and the
// choice crosses over once.
func bcastCost(s Selector, ranks, bytes int) (tree, pipe float64) {
	a, b, logp := s.alphaBeta(ranks)
	p, n, c := float64(ranks), float64(bytes), float64(s.chunk())
	return logp * (a + n*b), (p - 2 + n/c) * (a + c*b)
}

// allgatherCost: the composed gather + bcast binomial trees against the
// ring; bytes is the whole gathered buffer.
func allgatherCost(s Selector, ranks, bytes int) (tree, pipe float64) {
	a, b, logp := s.alphaBeta(ranks)
	p, n := float64(ranks), float64(bytes)
	gather := logp*a + (p-1)/p*n*b
	return gather + logp*(a+n*b), (p - 1) * (a + n*b/p)
}

// pick is the policy of the rooted and all-to-one-to-all operations
// (Bcast, Gather, Reduce, Allreduce, Allgather): linear while
// latency-bound (cheap sends, modest rank counts); past that, the tree —
// or the pipelined variant when the operation has one (cost != nil) and
// its modeled time is lower.
func (s Selector) pick(ranks, bytes int, cost costFn) Algo {
	if a := s.forced(cost != nil); a != AlgoAuto {
		return a
	}
	if ranks <= 2 {
		return AlgoLinear
	}
	fanout := s.FanoutMaxRanks
	if fanout <= 0 {
		fanout = 32
	}
	if bytes <= s.SmallMax && ranks <= fanout {
		return AlgoLinear
	}
	if cost != nil {
		if tree, pipe := cost(s, ranks, bytes); pipe < tree {
			return AlgoPipeline
		}
	}
	return AlgoTree
}

// alltoall is the Alltoall policy: every rank sends to every other rank
// regardless of algorithm, so the choice is between posting everything at
// once (small blocks: one stage keeps every gate busy) and pairwise
// exchange rounds (large blocks: bounds rendezvous concurrency and memory
// pressure).
func (s Selector) alltoall(ranks, block int) Algo {
	if a := s.forced(true); a != AlgoAuto {
		if a == AlgoTree {
			a = AlgoPipeline // no tree alltoall; pairwise is the structured variant
		}
		return a
	}
	if ranks <= 2 || block <= s.SmallMax {
		return AlgoLinear
	}
	return AlgoPipeline
}

// barrier is the Barrier policy: dissemination rounds beat the linear
// gather/release beyond two ranks; there is nothing to pipeline.
func (s Selector) barrier(ranks int) Algo {
	if a := s.forced(false); a != AlgoAuto {
		return a
	}
	if ranks <= 2 {
		return AlgoLinear
	}
	return AlgoTree
}

// forced resolves the Force override, mapping pipeline onto tree for
// operations without a pipelined variant.
func (s Selector) forced(pipelined bool) Algo {
	a := s.Force
	if a == AlgoPipeline && !pipelined {
		a = AlgoTree
	}
	return a
}
